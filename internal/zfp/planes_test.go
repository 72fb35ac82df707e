package zfp

import (
	"bytes"
	"testing"

	"lcpio/internal/bitstream"
)

// xs64 is a tiny deterministic xorshift generator so plane tests never
// depend on math/rand ordering.
type xs64 uint64

func (s *xs64) next() uint64 {
	x := uint64(*s)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = xs64(x)
	return x
}

// TestTranspose64Orientation pins the bit convention of transpose64: bit c
// of output word r must be bit r of input word c (LSB-first on both axes),
// which is exactly the plane-gather orientation encodePlanes relies on.
func TestTranspose64Orientation(t *testing.T) {
	var a, orig [64]uint64
	s := xs64(0x9E3779B97F4A7C15)
	for i := range a {
		a[i] = s.next()
	}
	orig = a
	transpose64(&a)
	for r := 0; r < 64; r++ {
		for c := 0; c < 64; c++ {
			if (a[r]>>uint(c))&1 != (orig[c]>>uint(r))&1 {
				t.Fatalf("transpose bit (%d,%d) = %d, want original bit (%d,%d) = %d",
					r, c, (a[r]>>uint(c))&1, c, r, (orig[c]>>uint(r))&1)
			}
		}
	}
	transpose64(&a)
	if a != orig {
		t.Fatal("transpose64 applied twice is not the identity")
	}
}

// refEncodePlanes is the historical bit-at-a-time group-tested coder, kept
// verbatim as the reference the batched encoder must match bit for bit.
func refEncodePlanes(w *bitstream.Writer, nb []uint64, kmin, kmax int) {
	size := len(nb)
	n := 0
	for k := kmax - 1; k >= kmin; k-- {
		var x uint64
		for i := 0; i < size; i++ {
			x |= ((nb[i] >> uint(k)) & 1) << uint(i)
		}
		for i := 0; i < n; i++ {
			w.WriteBit(uint(x & 1))
			x >>= 1
		}
		for i := n; i < size; {
			if x == 0 {
				w.WriteBit(0)
				break
			}
			w.WriteBit(1)
			for i < size-1 && x&1 == 0 {
				w.WriteBit(0)
				x >>= 1
				i++
			}
			if i < size-1 {
				w.WriteBit(1)
			}
			x >>= 1
			i++
			n = i
		}
	}
}

// randomPlaneWords fills nb with words whose population thins out toward
// high planes, mimicking transformed coefficients (and exercising both the
// dense raw-prefix path and long group-test runs).
func randomPlaneWords(s *xs64, nb []uint64, kmax int) {
	for i := range nb {
		v := s.next()
		// Sparsify: most coefficients are small, a few are large.
		switch v % 5 {
		case 0:
			nb[i] = 0
		case 1, 2:
			nb[i] = s.next() & ((1 << 8) - 1)
		default:
			nb[i] = s.next()
		}
		if kmax < 64 {
			nb[i] &= (1 << uint(kmax)) - 1
		}
	}
}

// TestEncodePlanesMatchesReference: the batched plane coder must produce the
// exact byte stream of the historical bit-at-a-time coder for every block
// size and a spread of cutoffs. This is what keeps v3 streams byte-stable.
func TestEncodePlanesMatchesReference(t *testing.T) {
	s := xs64(0xDEADBEEFCAFE1234)
	for _, size := range []int{4, 16, 64} {
		nb := make([]uint64, size)
		for _, win := range planeWindows([]int{1, 7, 23, 54, 62}, func(kmax int) []int {
			return []int{0, 1, kmax / 2, kmax - 1}
		}) {
			kmin, kmax := win[0], win[1]
			for trial := 0; trial < 8; trial++ {
				randomPlaneWords(&s, nb, kmax)
				if trial%2 == 1 {
					// Live bits below the cutoff too, as real coefficients
					// have: the gather must leave them out.
					for i := range nb {
						nb[i] |= s.next() & (1<<uint(kmin) - 1)
					}
				}
				ref := bitstream.NewWriter(256)
				refEncodePlanes(ref, nb, kmin, kmax)
				got := bitstream.NewWriter(256)
				encodePlanes(got, nb, kmin, kmax)
				if !bytes.Equal(ref.Bytes(), got.Bytes()) {
					t.Fatalf("size=%d kmin=%d kmax=%d trial=%d: batched coder diverges from reference",
						size, kmin, kmax, trial)
				}
			}
		}
	}
}

// planeWindows lists [kmin, kmax) windows for the plane-coder differentials:
// every kmin that kmins yields for each kmax, then windows whose live-plane
// count sits on and either side of each point where the windowed transpose
// changes shape (8, 16 and 32 planes: one more pack on one side, one more
// swap round on the other), at a low, a middle and the highest cutoff a
// stream can carry (hiPlane), and windows of more than 32 planes.
func planeWindows(kmaxs []int, kmins func(kmax int) []int) [][2]int {
	var out [][2]int
	for _, kmax := range kmaxs {
		for _, kmin := range kmins(kmax) {
			if kmin >= 0 && kmin <= kmax {
				out = append(out, [2]int{kmin, kmax})
			}
		}
	}
	for _, live := range []int{7, 8, 9, 15, 16, 17, 31, 32, 33, 45} {
		for _, kmin := range []int{0, 11, hiPlane - live} {
			if kmin+live <= hiPlane {
				out = append(out, [2]int{kmin, kmin + live})
			}
		}
	}
	return out
}

// TestDecodePlanesRecoversMaskedWords pins the property the encoder's
// masked verification builds on: a round trip through the group-tested
// coder recovers exactly nb[i] restricted to the transmitted plane range.
func TestDecodePlanesRecoversMaskedWords(t *testing.T) {
	s := xs64(0x0123456789ABCDEF)
	for _, size := range []int{4, 16, 64} {
		nb := make([]uint64, size)
		dnb := make([]uint64, size)
		for _, kmax := range []int{3, 17, 40, 62} {
			for _, kmin := range []int{0, 2, kmax - 2} {
				if kmin < 0 || kmin > kmax {
					continue
				}
				for trial := 0; trial < 8; trial++ {
					randomPlaneWords(&s, nb, kmax)
					w := bitstream.NewWriter(256)
					encodePlanes(w, nb, kmin, kmax)
					r := bitstream.NewReader(w.Bytes())
					if err := decodePlanes(r, dnb, kmin, kmax); err != nil {
						t.Fatalf("size=%d kmin=%d kmax=%d: decode: %v", size, kmin, kmax, err)
					}
					mask := (uint64(1)<<uint(kmax) - 1) &^ (uint64(1)<<uint(kmin) - 1)
					for i := range nb {
						if dnb[i] != nb[i]&mask {
							t.Fatalf("size=%d kmin=%d kmax=%d: word %d = %#x, want %#x (masked)",
								size, kmin, kmax, i, dnb[i], nb[i]&mask)
						}
					}
				}
			}
		}
	}
}

// nbTab drives the 8-bit-chunk table negabinary conversion benchmarked
// against the closed form to justify keeping the latter (see DESIGN §5i):
// the closed form is two ALU ops with no memory traffic, while the table
// must also thread the addition carry between chunks. Each entry maps
// chunk + carry-in (0..256) to the converted low byte plus carry-out in
// bit 8.
var nbTab = func() (tab [512]uint16) {
	for b := range tab {
		sum := b + 0xAA
		tab[b] = uint16((sum&0xFF)^0xAA) | uint16(sum>>8)<<8
	}
	return tab
}()

func int2nbTable(x int64) uint64 {
	u := uint64(x)
	var out uint64
	carry := uint64(0)
	for shift := uint(0); shift < 64; shift += 8 {
		e := nbTab[(u>>shift)&0xFF+carry]
		out |= uint64(e&0xFF) << shift
		carry = uint64(e >> 8)
	}
	return out
}

func TestInt2nbTableMatchesClosedForm(t *testing.T) {
	s := xs64(0x5DEECE66D)
	for trial := 0; trial < 4096; trial++ {
		x := int64(s.next())
		if got, want := int2nbTable(x), int2nb(x); got != want {
			t.Fatalf("x=%d: table form %#x, closed form %#x", x, got, want)
		}
	}
}

var sinkU64 uint64

// BenchmarkNegabinary compares the closed-form negabinary mapping with the
// table-driven variant; run with -bench Negabinary to reproduce the DESIGN
// §5i receipts.
func BenchmarkNegabinary(b *testing.B) {
	vals := make([]int64, 4096)
	s := xs64(1)
	for i := range vals {
		vals[i] = int64(s.next())
	}
	b.Run("closed", func(b *testing.B) {
		var acc uint64
		for i := 0; i < b.N; i++ {
			for _, v := range vals {
				acc ^= int2nb(v)
			}
		}
		sinkU64 = acc
	})
	b.Run("table", func(b *testing.B) {
		var acc uint64
		for i := 0; i < b.N; i++ {
			for _, v := range vals {
				acc ^= int2nbTable(v)
			}
		}
		sinkU64 = acc
	})
}
