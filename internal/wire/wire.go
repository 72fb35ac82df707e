// Package wire provides the little-endian byte-level framing helpers shared
// by every stream format in this repository (the sz, zfp and squant codecs,
// the chunked container, the checkpoint-set manifest and the daemon's
// frames), and owns what all of them say about an array: its shape header,
// the caps a shape must stay inside, the element width word, and the
// collapse of singleton dimensions to the 1-, 2- or 3-D form the codecs work
// in. Each caller constructs a Reader with its own corrupt-stream sentinel,
// so decode errors keep their package identity ("sz: corrupt stream" vs
// "container: corrupt stream").
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The caps every shape is held to, by the encoders as by the decoders, so
// that what is written can be read back and a hostile header cannot size an
// allocation. MaxElems is the binding one; MaxExtent is what a u64 extent is
// checked against before it is narrowed to int.
const (
	MaxDims   = 8
	MaxExtent = 1 << 40
	MaxElems  = 1 << 34
)

// Float constrains the element types the codecs accept.
type Float interface {
	~float32 | ~float64
}

// ElemBits is the header word for F's width: 32 or 64.
func ElemBits[F Float]() uint32 {
	var z F
	if _, ok := any(z).(float32); ok {
		return 32
	}
	return 64
}

// Sized returns dst resliced to n elements when it has the capacity, a new
// slice otherwise; what dst held is not kept. Decoders call it for their
// output only after every check that can refuse the stream from its header.
func Sized[T any](dst []T, n int) []T {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]T, n)
}

// elems returns the element count dims describe, or why they describe none:
// no dims or more than MaxDims, an extent outside [1, MaxExtent], a product
// above MaxElems (the division cannot overflow where a product could).
func elems(dims []int) (int, error) {
	if len(dims) == 0 {
		return 0, errors.New("empty dims")
	}
	if len(dims) > MaxDims {
		return 0, fmt.Errorf("%d dims exceeds the format maximum %d", len(dims), MaxDims)
	}
	n := 1
	for _, d := range dims {
		if d <= 0 || d > MaxExtent {
			return 0, fmt.Errorf("dimension %d outside [1, %d]", d, MaxExtent)
		}
		if d > MaxElems/n {
			return 0, fmt.Errorf("dims %v exceed the format maximum of %d elements", dims, MaxElems)
		}
		n *= d
	}
	return n, nil
}

// CheckDims reports whether dims is a shape the formats can carry and
// describes exactly n elements; the error is prefixed with pkg, the caller's
// package name.
func CheckDims(pkg string, n int, dims []int) error {
	got, err := elems(dims)
	if err != nil {
		return fmt.Errorf("%s: %w", pkg, err)
	}
	if got != n {
		return fmt.Errorf("%s: dims %v imply %d elements, data has %d", pkg, dims, got, n)
	}
	return nil
}

// Collapse drops singleton dimensions and folds what is left to the rank the
// codecs work in: rank is 1, 2 or 3, d2 the fastest extent, and the unused
// leading extents are 1 (all-singleton dims are one element of rank 1).
// Beyond three non-trivial dimensions the leading ones fold into d0.
// Row-major order is unchanged, so offsets into the array are too. It runs
// per partition and does not allocate.
func Collapse(dims []int) (rank, d0, d1, d2 int) {
	d0, d1, d2 = 1, 1, 1
	for _, d := range dims {
		if d > 1 {
			if rank < 3 {
				rank++
				d0 = d1
			} else {
				d0 *= d1
			}
			d1, d2 = d2, d
		}
	}
	return max(rank, 1), d0, d1, d2
}

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

// Dims reads a shape header — u32 ndims, then ndims × u64 extents — and
// returns the extents with the element count they describe. A shape outside
// the caps latches the corrupt-stream error and returns nil.
func (r *Reader) Dims() (dims []int, n int) {
	nd := r.Uint32()
	if r.err != nil || nd == 0 || nd > MaxDims {
		r.err = r.corrupt
		return nil, 0
	}
	dims = make([]int, nd)
	for i := range dims {
		d := r.Uint64()
		if d > MaxExtent {
			r.err = r.corrupt
			return nil, 0
		}
		dims[i] = int(d)
	}
	n, err := elems(dims)
	if r.err != nil || err != nil {
		r.err = r.corrupt
		return nil, 0
	}
	return dims, n
}

// String reads a u32 length and that many bytes as a string. A length above
// limit latches the corrupt-stream error.
func (r *Reader) String(limit int) string {
	n := r.Uint32()
	if r.err != nil || uint64(n) > uint64(limit) {
		r.err = r.corrupt
		return ""
	}
	return string(r.Bytes(int(n)))
}

// AppendDims appends the shape header Dims reads.
func AppendDims(b []byte, dims []int) []byte {
	b = AppendUint32(b, uint32(len(dims)))
	for _, d := range dims {
		b = AppendUint64(b, uint64(d))
	}
	return b
}

// AppendString appends the length-prefixed form String reads.
func AppendString(b []byte, s string) []byte {
	return append(AppendUint32(b, uint32(len(s))), s...)
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

// AppendValue appends one element at F's own width.
func AppendValue[F Float](b []byte, v F) []byte {
	if ElemBits[F]() == 32 {
		return AppendUint32(b, math.Float32bits(float32(v)))
	}
	return AppendFloat64(b, float64(v))
}

// ReadValue reads one element at F's own width.
func ReadValue[F Float](r *Reader) F {
	if ElemBits[F]() == 32 {
		return F(r.Float32())
	}
	return F(r.Float64())
}
