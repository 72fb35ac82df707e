// Package bitstream provides MSB-first bit-level readers and writers used by
// the entropy-coding stages of the sz and zfp codecs.
//
// Both Writer and Reader operate on in-memory byte slices: the codecs in this
// repository are single-pass, buffer-oriented transforms, so a streaming
// io.Reader/io.Writer layer would only add copies. Bits are packed MSB first
// within each byte, matching the order in which embedded bit-plane coders
// emit significance information.
package bitstream

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrOverrun is returned by Reader methods when a read extends past the end
// of the underlying buffer.
var ErrOverrun = errors.New("bitstream: read past end of buffer")

// Writer accumulates bits MSB-first into an internal byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  uint64 // bits staged, left-aligned at bit 63
	ncur uint   // number of staged bits (0..63)
}

// NewWriter returns a Writer whose internal buffer has the given capacity
// hint in bytes. A hint of 0 is valid.
func NewWriter(capHint int) *Writer {
	if capHint < 0 {
		capHint = 0
	}
	return &Writer{buf: make([]byte, 0, capHint)}
}

// Reset discards all written bits, retaining the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur = 0
	w.ncur = 0
}

// WriteBit appends a single bit (the low bit of b).
func (w *Writer) WriteBit(b uint) {
	w.cur |= uint64(b&1) << (63 - w.ncur)
	w.ncur++
	if w.ncur == 64 {
		w.flushWord()
	}
}

// WriteBool appends one bit, 1 for true.
func (w *Writer) WriteBool(b bool) {
	if b {
		w.WriteBit(1)
	} else {
		w.WriteBit(0)
	}
}

// WriteBits appends the low n bits of v, most-significant first. n must be in
// [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n > 64 {
		panic(fmt.Sprintf("bitstream: WriteBits n=%d out of range", n))
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	free := 64 - w.ncur
	if n <= free {
		w.cur |= v << (free - n)
		w.ncur += n
		if w.ncur == 64 {
			w.flushWord()
		}
		return
	}
	// Split across the staging word boundary.
	hi := n - free
	w.cur |= v >> hi
	w.ncur = 64
	w.flushWord()
	w.cur = v << (64 - hi)
	w.ncur = hi
}

func (w *Writer) flushWord() {
	w.buf = append(w.buf,
		byte(w.cur>>56), byte(w.cur>>48), byte(w.cur>>40), byte(w.cur>>32),
		byte(w.cur>>24), byte(w.cur>>16), byte(w.cur>>8), byte(w.cur))
	w.cur = 0
	w.ncur = 0
}

// Bytes flushes any partial byte (padding with zero bits) and returns the
// packed buffer. The Writer remains usable; further writes continue after the
// padding, so callers should treat Bytes as a finalization step.
func (w *Writer) Bytes() []byte {
	for w.ncur%8 != 0 {
		w.WriteBit(0)
	}
	for w.ncur > 0 {
		w.buf = append(w.buf, byte(w.cur>>56))
		w.cur <<= 8
		w.ncur -= 8
	}
	return w.buf
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf []byte
	pos int // next byte index
	cur uint64
	nc  uint // valid bits in cur, left-aligned
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Reset rewinds the reader to the start of a (possibly new) buffer.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
	r.cur = 0
	r.nc = 0
}

// fill tops cur up to more than 56 valid bits, or to the end of the buffer.
// While at least 8 bytes remain it is one big-endian load, masked down to the
// whole bytes that fit so the bits of cur below the top nc stay zero; only
// the last 7 bytes of a buffer go through the byte loop.
func (r *Reader) fill() {
	if r.nc > 56 {
		return
	}
	if r.pos+8 <= len(r.buf) {
		k := (64 - r.nc) >> 3
		nc := r.nc + k<<3
		r.cur |= binary.BigEndian.Uint64(r.buf[r.pos:]) >> r.nc &^ (1<<(64-nc) - 1)
		r.nc = nc
		r.pos += int(k)
		return
	}
	for r.nc <= 56 && r.pos < len(r.buf) {
		r.cur |= uint64(r.buf[r.pos]) << (56 - r.nc)
		r.nc += 8
		r.pos++
	}
}

// ReadBit reads one bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.nc == 0 {
		r.fill()
		if r.nc == 0 {
			return 0, ErrOverrun
		}
	}
	b := uint(r.cur >> 63)
	r.cur <<= 1
	r.nc--
	return b, nil
}

// ReadBool reads one bit as a boolean.
func (r *Reader) ReadBool() (bool, error) {
	b, err := r.ReadBit()
	return b == 1, err
}

// ReadBits reads n bits (n in [0,64]) MSB-first and returns them
// right-aligned.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n == 0 {
		return 0, nil
	}
	if n > 64 {
		panic(fmt.Sprintf("bitstream: ReadBits n=%d out of range", n))
	}
	if r.nc < n {
		r.fill()
	}
	if r.nc >= n {
		v := r.cur >> (64 - n)
		r.cur <<= n
		r.nc -= n
		return v, nil
	}
	// Not enough buffered even after fill: drain what we have, then retry.
	have := r.nc
	if have == 0 && r.pos >= len(r.buf) {
		return 0, ErrOverrun
	}
	v := r.cur >> (64 - have)
	r.cur = 0
	r.nc = 0
	rest, err := r.ReadBits(n - have)
	if err != nil {
		return 0, err
	}
	return v<<(n-have) | rest, nil
}

// MaxPeek is the widest Peek: fill guarantees more than 56 buffered bits
// whenever the buffer still holds them, and no more than that.
const MaxPeek = 56

// Peek returns the next n bits (n in [0,MaxPeek]) MSB-first, right-aligned,
// without consuming them; a wider n panics. Bits past the end of the buffer
// read as zero, so table-driven decoders can peek a full index width near the
// end of a stream; pair with Skip, which does report overrun, to consume what
// was matched.
func (r *Reader) Peek(n uint) uint64 {
	if n > r.nc || n > MaxPeek {
		r.peekFill(n)
	}
	// Bits of cur below the top nc valid ones are always zero, so this
	// yields zero-padding automatically when fewer than n bits remain.
	return r.cur >> (64 - n)
}

func (r *Reader) peekFill(n uint) {
	if n > MaxPeek {
		panic(fmt.Sprintf("bitstream: Peek n=%d out of range", n))
	}
	r.fill()
}

// Skip consumes n bits, returning ErrOverrun if fewer remain.
func (r *Reader) Skip(n uint) error {
	if n <= r.nc {
		r.cur <<= n
		r.nc -= n
		return nil
	}
	return r.skipSlow(n)
}

func (r *Reader) skipSlow(n uint) error {
	for n > 0 {
		if r.nc == 0 {
			r.fill()
			if r.nc == 0 {
				return ErrOverrun
			}
		}
		k := n
		if k > r.nc {
			k = r.nc
		}
		r.cur <<= k
		r.nc -= k
		n -= k
	}
	return nil
}

// Window returns the reader's buffered bits: the next nc bits of the stream,
// left-aligned in cur, with every bit below them zero. A hot loop may consume
// from a copy held in locals — shifting cur left and lowering nc by the same
// count keeps that shape — and hand what is left back with SetWindow before
// it calls any other method.
func (r *Reader) Window() (cur uint64, nc uint) { return r.cur, r.nc }

// SetWindow replaces the buffered bits with a window taken by Window and
// consumed from since.
func (r *Reader) SetWindow(cur uint64, nc uint) { r.cur, r.nc = cur, nc }

// Refill tops a window taken by Window up from the buffer, as every read
// does — to more than 56 bits, or to the end of the stream — and returns it.
func (r *Reader) Refill(cur uint64, nc uint) (uint64, uint) {
	r.cur, r.nc = cur, nc
	r.fill()
	return r.cur, r.nc
}

// BitsRemaining reports the number of unread bits.
func (r *Reader) BitsRemaining() int {
	return (len(r.buf)-r.pos)*8 + int(r.nc)
}
