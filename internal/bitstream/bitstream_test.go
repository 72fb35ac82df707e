package bitstream

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter(16)
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

func TestWriteBitsBoundaries(t *testing.T) {
	cases := []struct {
		v uint64
		n uint
	}{
		{0, 1}, {1, 1}, {0xFF, 8}, {0x1234, 16}, {0xDEADBEEF, 32},
		{0xFFFFFFFFFFFFFFFF, 64}, {1, 64}, {0x7FFFFFFFFFFFFFFF, 63},
		{5, 3}, {0, 64},
	}
	w := NewWriter(0)
	for _, c := range cases {
		w.WriteBits(c.v, c.n)
	}
	r := NewReader(w.Bytes())
	for i, c := range cases {
		got, err := r.ReadBits(c.n)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want := c.v
		if c.n < 64 {
			want &= (1 << c.n) - 1
		}
		if got != want {
			t.Fatalf("case %d: got %#x want %#x", i, got, want)
		}
	}
}

func TestWriteBitsCrossesWordBoundary(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0x3, 2) // stage 2 bits so a 64-bit write must split
	w.WriteBits(0xAAAAAAAAAAAAAAAA, 64)
	w.WriteBits(0x5, 3)
	r := NewReader(w.Bytes())
	if v, _ := r.ReadBits(2); v != 0x3 {
		t.Fatalf("prefix: got %#x", v)
	}
	if v, _ := r.ReadBits(64); v != 0xAAAAAAAAAAAAAAAA {
		t.Fatalf("word: got %#x", v)
	}
	if v, _ := r.ReadBits(3); v != 0x5 {
		t.Fatalf("suffix: got %#x", v)
	}
}

func TestReaderOverrun(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("first byte: %v", err)
	}
	if _, err := r.ReadBit(); err != ErrOverrun {
		t.Fatalf("expected ErrOverrun, got %v", err)
	}
	r2 := NewReader(nil)
	if _, err := r2.ReadBits(1); err != ErrOverrun {
		t.Fatalf("empty reader: expected ErrOverrun, got %v", err)
	}
}

func TestReaderPartialThenOverrun(t *testing.T) {
	r := NewReader([]byte{0xAB})
	// Asking for 16 bits when only 8 exist must fail, not fabricate bits.
	if _, err := r.ReadBits(16); err != ErrOverrun {
		t.Fatalf("expected ErrOverrun, got %v", err)
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xFFFF, 16)
	w.Reset()
	w.WriteBits(0x1, 1)
	b := w.Bytes()
	if len(b) != 1 || b[0] != 0x80 {
		t.Fatalf("after reset got %v", b)
	}
}

func TestReaderReset(t *testing.T) {
	r := NewReader([]byte{0xF0})
	if v, _ := r.ReadBits(4); v != 0xF {
		t.Fatalf("pre-reset read got %#x", v)
	}
	r.Reset([]byte{0x0F})
	if v, _ := r.ReadBits(8); v != 0x0F {
		t.Fatalf("post-reset read got %#x", v)
	}
}

func TestBitsRemaining(t *testing.T) {
	r := NewReader([]byte{0, 0, 0})
	if r.BitsRemaining() != 24 {
		t.Fatalf("BitsRemaining = %d", r.BitsRemaining())
	}
	_, _ = r.ReadBits(5)
	if r.BitsRemaining() != 19 {
		t.Fatalf("after 5 bits: %d", r.BitsRemaining())
	}
}

// Property: any sequence of (value, width) writes reads back identically.
func TestQuickRoundTrip(t *testing.T) {
	f := func(vals []uint64, widths []uint8, seed int64) bool {
		n := len(vals)
		if len(widths) < n {
			n = len(widths)
		}
		if n == 0 {
			return true
		}
		w := NewWriter(0)
		want := make([]uint64, n)
		ws := make([]uint, n)
		for i := 0; i < n; i++ {
			ws[i] = uint(widths[i]%64) + 1
			want[i] = vals[i]
			if ws[i] < 64 {
				want[i] &= (1 << ws[i]) - 1
			}
			w.WriteBits(vals[i], ws[i])
		}
		r := NewReader(w.Bytes())
		for i := 0; i < n; i++ {
			got, err := r.ReadBits(ws[i])
			if err != nil || got != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 2, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: mixed bit/multi-bit/zero-run traffic round-trips.
func TestQuickMixedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		type op struct {
			kind int
			v    uint64
			n    uint
		}
		ops := make([]op, rng.Intn(200)+1)
		w := NewWriter(0)
		for i := range ops {
			switch rng.Intn(3) {
			case 0:
				ops[i] = op{kind: 0, v: uint64(rng.Intn(2))}
				w.WriteBit(uint(ops[i].v))
			case 1:
				n := uint(rng.Intn(64) + 1)
				v := rng.Uint64()
				if n < 64 {
					v &= (1 << n) - 1
				}
				ops[i] = op{kind: 1, v: v, n: n}
				w.WriteBits(v, n)
			default:
				// A run of zero bits closed by a one, bit by bit.
				u := uint(rng.Intn(40))
				ops[i] = op{kind: 2, v: uint64(u)}
				for j := uint(0); j < u; j++ {
					w.WriteBit(0)
				}
				w.WriteBit(1)
			}
		}
		r := NewReader(w.Bytes())
		for i, o := range ops {
			switch o.kind {
			case 0:
				b, err := r.ReadBit()
				if err != nil || uint64(b) != o.v {
					t.Fatalf("trial %d op %d bit: got %d err %v want %d", trial, i, b, err, o.v)
				}
			case 1:
				v, err := r.ReadBits(o.n)
				if err != nil || v != o.v {
					t.Fatalf("trial %d op %d bits: got %#x err %v want %#x", trial, i, v, err, o.v)
				}
			default:
				var u uint64
				b, err := r.ReadBit()
				for ; err == nil && b == 0; b, err = r.ReadBit() {
					u++
				}
				if err != nil || u != o.v {
					t.Fatalf("trial %d op %d run: got %d err %v want %d", trial, i, u, err, o.v)
				}
			}
		}
	}
}

func BenchmarkWriterWriteBits(b *testing.B) {
	w := NewWriter(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%65536 == 0 {
			w.Reset()
		}
		w.WriteBits(uint64(i), 37)
	}
}

func BenchmarkReaderReadBits(b *testing.B) {
	w := NewWriter(1 << 20)
	for i := 0; i < 65536; i++ {
		w.WriteBits(uint64(i), 37)
	}
	buf := w.Bytes()
	r := NewReader(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%65536 == 0 {
			r.Reset(buf)
		}
		if _, err := r.ReadBits(37); err != nil {
			b.Fatal(err)
		}
	}
}

// refBits returns bits [pos, pos+n) of buf MSB-first, right-aligned, reading
// zero past the end — Peek's contract, one bit at a time.
func refBits(buf []byte, pos, n int) uint64 {
	var v uint64
	for i := pos; i < pos+n; i++ {
		v <<= 1
		if i < len(buf)*8 {
			v |= uint64(buf[i/8]>>(7-uint(i%8))) & 1
		}
	}
	return v
}

// TestPeekSkipEveryWidthAndPhase walks Peek(n)/Skip(k) for every legal n
// from every starting bit phase and every stride k, against the bit-at-a-time
// reference: the value Peek returns must be the real stream bits wherever the
// buffer still holds them (the wide refill and the tail byte loop both), zero
// beyond, and Skip must report overrun exactly when the walk leaves the
// buffer. Buffer lengths straddle the 8-byte load boundary.
func TestPeekSkipEveryWidthAndPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, size := range []int{0, 1, 7, 8, 9, 15, 16, 17, 37} {
		buf := make([]byte, size)
		rng.Read(buf)
		total := size * 8
		for n := 1; n <= MaxPeek; n++ {
			for phase := 0; phase < 64; phase++ {
				for k := 1; k <= 64; k++ {
					r := NewReader(buf)
					pos := 0
					step := phase
					for {
						err := r.Skip(uint(step))
						if pos+step > total {
							if err != ErrOverrun {
								t.Fatalf("size %d n %d phase %d k %d: Skip(%d) at bit %d of %d: err %v, want ErrOverrun",
									size, n, phase, k, step, pos, total, err)
							}
							break
						}
						if err != nil {
							t.Fatalf("size %d n %d phase %d k %d: Skip(%d) at bit %d of %d: %v",
								size, n, phase, k, step, pos, total, err)
						}
						pos += step
						if got, want := r.Peek(uint(n)), refBits(buf, pos, n); got != want {
							t.Fatalf("size %d phase %d k %d: Peek(%d) at bit %d of %d = %#x, want %#x",
								size, phase, k, n, pos, total, got, want)
						}
						if got := r.BitsRemaining(); got != total-pos {
							t.Fatalf("size %d: BitsRemaining at bit %d = %d, want %d", size, pos, got, total-pos)
						}
						step = k
					}
				}
			}
		}
	}
}

// Peek wider than MaxPeek cannot be served from one refill; it must panic
// whatever happens to be buffered, never return zero-padded data while bytes
// remain.
func TestPeekBeyondMaxPanics(t *testing.T) {
	buf := make([]byte, 32)
	for n := uint(MaxPeek + 1); n <= 65; n++ {
		for phase := uint(0); phase < 16; phase++ {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("Peek(%d) at phase %d did not panic", n, phase)
					}
				}()
				r := NewReader(buf)
				if err := r.Skip(phase); err != nil {
					t.Fatal(err)
				}
				r.Peek(n)
			}()
		}
	}
}

// Mixed ReadBits/ReadBit/Peek/Skip traffic over the refill paths must read
// the same bits as the reference at every position.
func TestReaderMixedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		buf := make([]byte, rng.Intn(70))
		rng.Read(buf)
		r := NewReader(buf)
		pos, total := 0, len(buf)*8
		for pos < total {
			n := rng.Intn(64) + 1
			switch rng.Intn(4) {
			case 0:
				v, err := r.ReadBits(uint(n))
				if pos+n > total {
					if err != ErrOverrun {
						t.Fatalf("ReadBits(%d) at %d/%d: err %v, want ErrOverrun", n, pos, total, err)
					}
					pos = total
					continue
				}
				if err != nil || v != refBits(buf, pos, n) {
					t.Fatalf("ReadBits(%d) at %d/%d = %#x, %v; want %#x", n, pos, total, v, err, refBits(buf, pos, n))
				}
				pos += n
			case 1:
				b, err := r.ReadBit()
				if err != nil || uint64(b) != refBits(buf, pos, 1) {
					t.Fatalf("ReadBit at %d/%d = %d, %v", pos, total, b, err)
				}
				pos++
			case 2:
				if n > MaxPeek {
					n = MaxPeek
				}
				if got, want := r.Peek(uint(n)), refBits(buf, pos, n); got != want {
					t.Fatalf("Peek(%d) at %d/%d = %#x, want %#x", n, pos, total, got, want)
				}
			default:
				if pos+n > total {
					n = total - pos
				}
				if err := r.Skip(uint(n)); err != nil {
					t.Fatalf("Skip(%d) at %d/%d: %v", n, pos, total, err)
				}
				pos += n
			}
		}
	}
}
