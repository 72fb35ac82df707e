// Package wire provides the little-endian byte-level framing helpers shared
// by every stream format in this repository (the sz and zfp codecs, the
// chunked container, and the pointwise-relative sidecar). It replaces three
// copy-pasted byteReader implementations with one: each caller constructs a
// Reader with its own corrupt-stream sentinel, so decode errors keep their
// package identity ("sz: corrupt stream" vs "container: corrupt stream").
package wire

import (
	"encoding/binary"
	"math"
)

// Reader consumes little-endian fields from an in-memory buffer. The first
// out-of-bounds read latches the caller's corrupt-stream error; every later
// read returns the zero value, so parse code can read a whole header and
// check Err once.
type Reader struct {
	buf     []byte
	off     int
	err     error
	corrupt error
}

// NewReader returns a Reader over buf that reports corrupt (the caller's
// sentinel error, e.g. sz.ErrCorrupt) on any out-of-bounds read.
func NewReader(buf []byte, corrupt error) Reader {
	return Reader{buf: buf, corrupt: corrupt}
}

// Err returns the latched error, or nil if every read so far was in bounds.
func (r *Reader) Err() error { return r.err }

// Remaining reports the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Offset reports the current byte offset from the start of the buffer.
func (r *Reader) Offset() int { return r.off }

// Uint32 reads a little-endian uint32.
func (r *Reader) Uint32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.err = r.corrupt
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// Uint64 reads a little-endian uint64.
func (r *Reader) Uint64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.err = r.corrupt
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Float64 reads a little-endian IEEE-754 float64.
func (r *Reader) Float64() float64 {
	return math.Float64frombits(r.Uint64())
}

// Float32 reads a little-endian IEEE-754 float32.
func (r *Reader) Float32() float32 {
	return math.Float32frombits(r.Uint32())
}

// Bytes returns the next n bytes without copying. The slice aliases the
// underlying buffer.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.err = r.corrupt
		return nil
	}
	v := r.buf[r.off : r.off+n]
	r.off += n
	return v
}

// AppendUint32 appends v little-endian.
func AppendUint32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// AppendUint64 appends v little-endian.
func AppendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendFloat64 appends v as little-endian IEEE-754 bits.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
