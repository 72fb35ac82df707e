package zfp

import (
	"math"
	"testing"
)

// The kernels the PR 21 block path replaced, kept verbatim as the references
// the new ones are held to (like refDecodePlanes): the strided in-slice
// lifts, the transforms built from them, the full-width transpose and the
// element-by-element cutoff verifier.

// fwdLift applies the ZFP lifted decorrelating transform to 4 samples at
// stride s.
func fwdLift(p []int64, off, s int) {
	x, y, z, w := p[off], p[off+s], p[off+2*s], p[off+3*s]
	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y >> 1
	y -= w >> 1
	p[off], p[off+s], p[off+2*s], p[off+3*s] = x, y, z, w
}

// invLift inverts fwdLift up to the bits lost in its right-shifts.
func invLift(p []int64, off, s int) {
	x, y, z, w := p[off], p[off+s], p[off+2*s], p[off+3*s]
	y += w >> 1
	w -= y >> 1
	z += x
	x <<= 1
	x -= z
	y += z
	z <<= 1
	z -= y
	w += x
	x <<= 1
	x -= w
	p[off], p[off+s], p[off+2*s], p[off+3*s] = x, y, z, w
}

func refFwdTransform(c []int64, dim int) {
	switch dim {
	case 1:
		fwdLift(c, 0, 1)
	case 2:
		for j := 0; j < 4; j++ {
			fwdLift(c, j*4, 1)
		}
		for k := 0; k < 4; k++ {
			fwdLift(c, k, 4)
		}
	default:
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				fwdLift(c, (i*4+j)*4, 1)
			}
		}
		for i := 0; i < 4; i++ {
			for k := 0; k < 4; k++ {
				fwdLift(c, i*16+k, 4)
			}
		}
		for j := 0; j < 4; j++ {
			for k := 0; k < 4; k++ {
				fwdLift(c, j*4+k, 16)
			}
		}
	}
}

func refInvTransform(c []int64, dim int) {
	switch dim {
	case 1:
		invLift(c, 0, 1)
	case 2:
		for k := 0; k < 4; k++ {
			invLift(c, k, 4)
		}
		for j := 0; j < 4; j++ {
			invLift(c, j*4, 1)
		}
	default:
		for j := 0; j < 4; j++ {
			for k := 0; k < 4; k++ {
				invLift(c, j*4+k, 16)
			}
		}
		for i := 0; i < 4; i++ {
			for k := 0; k < 4; k++ {
				invLift(c, i*16+k, 4)
			}
		}
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				invLift(c, (i*4+j)*4, 1)
			}
		}
	}
}

// transpose64 is the full-width in-place transpose: transposeWindow on 64
// rows with the window [0, 64).
func transpose64(a *[64]uint64) {
	src := *a
	transposeWindow(a[:], src[:], 64, 0, 0)
}

// refVerifyCutoff is verifyCutoff as it stood: mask, strided inverse
// transform, and a compare that leaves at the first element out of bound.
func refVerifyCutoff[F Float](blk []F, nb []uint64, dim int, eb float64, emax, kmin, kmax int) bool {
	tr := traitsFor[F]()
	size := blockSize(dim)
	mask := (uint64(1)<<uint(kmax) - 1) &^ (uint64(1)<<uint(kmin) - 1)
	dcoef := make([]int64, size)
	for i, p := range permFor(dim) {
		dcoef[p] = nb2int(nb[i] & mask)
	}
	refInvTransform(dcoef, dim)
	inv := math.Ldexp(1, emax-tr.q)
	for i := 0; i < size; i++ {
		if math.Abs(float64(F(float64(dcoef[i])*inv))-float64(blk[i])) > eb {
			return false
		}
	}
	return true
}

// transformInputs are the coefficient classes the transforms are compared
// on: random at several magnitudes, all-ones, the int64 extremes and mixes
// of them, so every add and shift wraps somewhere.
func transformInputs(s *xs64, size int) [][]int64 {
	fill := func(f func(i int) int64) []int64 {
		c := make([]int64, size)
		for i := range c {
			c[i] = f(i)
		}
		return c
	}
	in := [][]int64{
		fill(func(int) int64 { return -1 }),
		fill(func(int) int64 { return 1 }),
		fill(func(int) int64 { return math.MinInt64 }),
		fill(func(int) int64 { return math.MaxInt64 }),
		fill(func(i int) int64 {
			if i%2 == 0 {
				return math.MinInt64
			}
			return math.MaxInt64
		}),
		fill(func(i int) int64 { return math.MaxInt64 - int64(i) }),
	}
	for _, shift := range []uint{0, 1, 2, 12, 24, 44, 60} {
		for trial := 0; trial < 40; trial++ {
			in = append(in, fill(func(int) int64 { return int64(s.next()) >> shift }))
		}
	}
	// Mostly extremes with a few random words: overflow on some lifts only.
	for trial := 0; trial < 40; trial++ {
		in = append(in, fill(func(int) int64 {
			switch v := s.next(); v % 4 {
			case 0:
				return math.MinInt64
			case 1:
				return math.MaxInt64
			default:
				return int64(v)
			}
		}))
	}
	return in
}

// TestTransformsMatchStridedReference: the array transforms are bit-exact
// with the strided lifts they replaced, int64 wrap-around included, in both
// directions and every dimensionality.
func TestTransformsMatchStridedReference(t *testing.T) {
	s := xs64(0xC0FFEE1234567)
	for dim := 1; dim <= 3; dim++ {
		for n, in := range transformInputs(&s, blockSize(dim)) {
			for _, dir := range []struct {
				name     string
				got, ref func([]int64, int)
			}{{"fwd", fwdTransform, refFwdTransform}, {"inv", invTransform, refInvTransform}} {
				got := append([]int64(nil), in...)
				want := append([]int64(nil), in...)
				dir.got(got, dim)
				dir.ref(want, dim)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("dim %d input %d %s: coefficient %d = %#x, reference %#x",
							dim, n, dir.name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestTransposeWindowMatchesDefinition holds both directions of the windowed
// transpose to the bit-by-bit definition — bit i of plane k is bit k of
// coefficient i — for every window 0 <= kmin <= kmax <= 64 and every block
// size. Coefficients are random over all 64 bits, so the window's
// surroundings are garbage the gather must mask off, and each destination
// starts as garbage the routine must overwrite.
func TestTransposeWindowMatchesDefinition(t *testing.T) {
	s := xs64(0x7EA5E77E5)
	for _, size := range []int{4, 16, 64} {
		for kmin := 0; kmin <= 64; kmin++ {
			for kmax := kmin; kmax <= 64; kmax++ {
				live := kmax - kmin
				nb := make([]uint64, size)
				for i := range nb {
					nb[i] = s.next()
				}
				var planes, want [64]uint64
				for k := range planes {
					planes[k] = s.next()
				}
				for k := 0; k < live; k++ {
					for i, v := range nb {
						want[k] |= (v >> uint(kmin+k) & 1) << uint(i)
					}
				}
				transposeWindow(planes[:], nb, live, uint(kmin), 0)
				for k := 0; k < live; k++ {
					if planes[k] != want[k] {
						t.Fatalf("size %d window [%d,%d): plane %d = %#x, want %#x",
							size, kmin, kmax, kmin+k, planes[k], want[k])
					}
				}

				// And back: the plane words rebuild exactly the window of
				// each coefficient.
				back := make([]uint64, size)
				for i := range back {
					back[i] = s.next()
				}
				transposeWindow(back, want[:live], size, 0, uint(kmin))
				for i, v := range nb {
					var mask uint64
					if live > 0 {
						mask = ^uint64(0) >> uint(64-live) << uint(kmin)
					}
					if back[i] != v&mask {
						t.Fatalf("size %d window [%d,%d): coefficient %d = %#x, want %#x",
							size, kmin, kmax, i, back[i], v&mask)
					}
				}
			}
		}
	}
}

// refMaxAbs is the finite / max-abs scan as encodeBlock made it: IsNaN and
// IsInf per element, leaving at the first non-finite value.
func refMaxAbs[F Float](blk []F) (float64, bool) {
	peak := 0.0
	for _, v := range blk {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, false
		}
		if a := math.Abs(f); a > peak {
			peak = a
		}
	}
	return peak, true
}

// adversarialBlocks are the value classes the per-block decisions turn on,
// as 64-value blocks (shorter blocks take a prefix): non-finite values in
// every position class, signed zeros, subnormals, constants, ranges that
// span the whole exponent field, and smooth data at a given magnitude.
func adversarialBlocks[F Float](s *xs64) [][]F {
	var z F
	_, single := any(z).(float32)
	tinyF, hugeF := math.SmallestNonzeroFloat64, math.MaxFloat64
	if single {
		tinyF, hugeF = math.SmallestNonzeroFloat32, math.MaxFloat32
	}
	tiny, huge := F(tinyF), F(hugeF)
	fill := func(f func(i int) F) []F {
		b := make([]F, 64)
		for i := range b {
			b[i] = f(i)
		}
		return b
	}
	unit := func() float64 { return float64(s.next()>>11) / (1 << 53) }
	negZero := F(math.Copysign(0, -1))
	out := [][]F{
		fill(func(int) F { return 0 }),
		fill(func(int) F { return negZero }),
		fill(func(i int) F { return []F{0, negZero}[i%2] }),
		fill(func(int) F { return tiny }),
		fill(func(i int) F { return tiny * F(i%7) }),
		fill(func(i int) F { return []F{tiny, -tiny, 0, negZero}[i%4] }),
		fill(func(int) F { return huge }),
		fill(func(i int) F { return []F{huge, -huge}[i%2] }),
		fill(func(i int) F { return []F{huge, tiny, -1, 0}[i%4] }),
		fill(func(int) F { return 1 }),
		fill(func(int) F { return F(-123456.789) }),
		fill(func(int) F { return F(1) / 3 }),
		fill(func(i int) F { return F(math.Ldexp(1, i-32)) }),
	}
	for _, bad := range []F{F(math.NaN()), F(math.Inf(1)), F(math.Inf(-1))} {
		for _, at := range []int{0, 1, 3, 15, 63} {
			out = append(out, fill(func(i int) F {
				if i == at {
					return bad
				}
				return F(i) - 20
			}))
		}
		out = append(out, fill(func(int) F { return bad }))
	}
	for _, mag := range []float64{1e-30, 1e-3, 1, 1e3, 1e30} {
		for trial := 0; trial < 6; trial++ {
			phase, rough := unit()*6, unit()
			out = append(out, fill(func(i int) F {
				x := float64(i%4) + 0.3*float64(i/4%4) + 0.1*float64(i/16)
				return F(mag * (math.Sin(x/3+phase) + rough*(unit()-0.5)))
			}))
		}
	}
	return out
}

func checkMaxAbs[F Float](t *testing.T) {
	s := xs64(0xAB5AB5)
	for n, blk := range adversarialBlocks[F](&s) {
		for _, size := range []int{4, 16, 64} {
			got, gotFinite := maxAbs(blk[:size])
			want, wantFinite := refMaxAbs(blk[:size])
			if gotFinite != wantFinite || (wantFinite && math.Float64bits(got) != math.Float64bits(want)) {
				t.Fatalf("block %d size %d: maxAbs = %g, %v; reference %g, %v",
					n, size, got, gotFinite, want, wantFinite)
			}
		}
	}
}

// TestMaxAbsMatchesReference: the bit-pattern scan finds the same peak, to
// the bit, and the same finite verdict as the per-element IsNaN / IsInf scan.
func TestMaxAbsMatchesReference(t *testing.T) {
	checkMaxAbs[float32](t)
	checkMaxAbs[float64](t)
}

// checkVerifyCutoff prepares each finite block the way encodeBlock does —
// quantize, transform, negabinary — and requires verifyCutoff's verdict to
// equal the reference's at every cutoff, for tolerances from far below an
// ULP of the block's peak to far above its range.
func checkVerifyCutoff[F Float](t *testing.T) {
	tr := traitsFor[F]()
	s := xs64(0x7E51F1)
	verdicts := [2]int{}
	for n, blk := range adversarialBlocks[F](&s) {
		for dim := 1; dim <= 3; dim++ {
			size := blockSize(dim)
			peak, finite := refMaxAbs(blk[:size])
			if !finite || peak == 0 {
				continue
			}
			_, emax := math.Frexp(peak)
			ln := &zlane[F]{}
			copy(ln.blk[:], blk[:size])
			scale := math.Ldexp(1, tr.q-emax)
			for i, v := range blk[:size] {
				ln.coef[i] = int64(math.RoundToEven(float64(v) * scale))
			}
			refFwdTransform(ln.coef[:size], dim)
			var all uint64
			for i, p := range permFor(dim) {
				ln.nb[i] = int2nb(ln.coef[p])
				all |= ln.nb[i]
			}
			kmax := min(bitsLen(all), tr.hi)
			ulp := math.Ldexp(1, emax-24)
			if tr.q == 52 {
				ulp = math.Ldexp(1, emax-53)
			}
			for _, eb := range []float64{ulp / 1024, ulp / 2, ulp, 1.5 * ulp, 3 * ulp, 1000 * ulp,
				peak * 1e-4, peak / 8, peak, 4 * peak, math.SmallestNonzeroFloat64, math.MaxFloat64} {
				for kmin := 0; kmin < tr.hi; kmin++ {
					km := max(kmax, kmin)
					got := verifyCutoff(ln, dim, eb, emax, kmin, km, tr)
					want := refVerifyCutoff(blk[:size], ln.nb[:size], dim, eb, emax, kmin, km)
					if got != want {
						t.Fatalf("block %d dim %d eb %g window [%d,%d): verifyCutoff = %v, reference %v",
							n, dim, eb, kmin, km, got, want)
					}
					if got {
						verdicts[1]++
					} else {
						verdicts[0]++
					}
				}
			}
		}
	}
	if verdicts[0] == 0 || verdicts[1] == 0 {
		t.Fatalf("verdicts %v: the sweep must see both accepts and rejects", verdicts)
	}
}

// TestVerifyCutoffMatchesReference: same accept / reject as the verifier this
// PR replaced, on every adversarial class, in both precisions.
func TestVerifyCutoffMatchesReference(t *testing.T) {
	checkVerifyCutoff[float32](t)
	checkVerifyCutoff[float64](t)
}
