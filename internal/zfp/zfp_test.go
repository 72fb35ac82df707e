package zfp

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lcpio/internal/fpdata"
)

func maxAbsErr(a, b []float32) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func roundTrip(t *testing.T, data []float32, dims []int, eb float64) []byte {
	t.Helper()
	comp, err := Compress(data, dims, eb)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	out, gotDims, err := Decompress(comp)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if len(out) != len(data) {
		t.Fatalf("len %d, want %d", len(out), len(data))
	}
	for i := range dims {
		if gotDims[i] != dims[i] {
			t.Fatalf("dims %v, want %v", gotDims, dims)
		}
	}
	if e := maxAbsErr(data, out); e > eb {
		t.Fatalf("tolerance violated: %g > %g", e, eb)
	}
	return comp
}

func TestZeroField(t *testing.T) {
	data := make([]float32, 256)
	comp := roundTrip(t, data, []int{256}, 1e-6)
	if len(comp) > 200 {
		t.Fatalf("zero field should compress to near-header size, got %d", len(comp))
	}
}

func TestConstantField3D(t *testing.T) {
	data := make([]float32, 16*16*16)
	for i := range data {
		data[i] = 2.5
	}
	roundTrip(t, data, []int{16, 16, 16}, 1e-4)
}

func TestSmooth1D(t *testing.T) {
	data := make([]float32, 4000)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 50))
	}
	comp := roundTrip(t, data, []int{4000}, 1e-3)
	// 1-D blocks carry a 20-bit header per 4 values, so expect a modest
	// ratio.
	if r := float64(len(data)*4) / float64(len(comp)); r < 1.9 {
		t.Fatalf("smooth 1-D should compress ~2x, got %.2f", r)
	}
}

func TestSmooth2D(t *testing.T) {
	d1, d2 := 60, 100 // deliberately not multiples of 4 (partial blocks)
	data := make([]float32, d1*d2)
	for i := 0; i < d1; i++ {
		for j := 0; j < d2; j++ {
			data[i*d2+j] = float32(math.Sin(float64(i)/9) * math.Cos(float64(j)/7))
		}
	}
	roundTrip(t, data, []int{d1, d2}, 1e-4)
}

func TestSmooth3D(t *testing.T) {
	d := 18 // partial blocks on every axis
	data := make([]float32, d*d*d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			for k := 0; k < d; k++ {
				data[(i*d+j)*d+k] = float32(math.Sin(float64(i)/6)*math.Cos(float64(j)/5) + math.Sin(float64(k)/7))
			}
		}
	}
	comp := roundTrip(t, data, []int{d, d, d}, 1e-3)
	// 18^3 means every axis ends in a padded partial block (~37% replicated
	// samples), so expect less than the full-block ratio.
	if r := float64(len(data)*4) / float64(len(comp)); r < 2 {
		t.Fatalf("smooth 3-D should compress >2x even with partial blocks, got %.2f", r)
	}
}

func TestAccuracySweepMonotone(t *testing.T) {
	spec, _ := fpdata.Lookup("NYX", "")
	f := fpdata.Generate(spec, 32, 5)
	lo, hi := f.Range()
	rng := float64(hi - lo)
	var prev int
	for _, rel := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
		comp := roundTrip(t, f.Data, f.Dims, rel*rng)
		if prev > 0 && len(comp) < prev {
			t.Errorf("finer tolerance %g gave smaller stream (%d < %d)", rel, len(comp), prev)
		}
		prev = len(comp)
	}
}

func TestNonFiniteValuesGoRaw(t *testing.T) {
	data := make([]float32, 64)
	for i := range data {
		data[i] = float32(i)
	}
	data[10] = float32(math.NaN())
	data[33] = float32(math.Inf(1))
	comp, err := Compress(data, []int{64}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(out[10])) {
		t.Errorf("NaN not preserved: %v", out[10])
	}
	if !math.IsInf(float64(out[33]), 1) {
		t.Errorf("+Inf not preserved: %v", out[33])
	}
	// Finite values in raw blocks round-trip exactly; the rest respect eb.
	for i, v := range out {
		if i == 10 || i == 33 {
			continue
		}
		if math.Abs(float64(v)-float64(data[i])) > 1e-3 {
			t.Fatalf("bound violated at %d: %v vs %v", i, v, data[i])
		}
	}
}

func TestTinyToleranceFallsBackToRaw(t *testing.T) {
	// A tolerance below fixed-point resolution forces raw blocks; values
	// must then be exact.
	rng := rand.New(rand.NewSource(1))
	data := make([]float32, 64)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	comp, err := Compress(data, []int{64}, 1e-30)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if out[i] != data[i] {
			// raw fallback stores bit-exact float32
			if math.Abs(float64(out[i])-float64(data[i])) > 1e-30 {
				t.Fatalf("raw fallback not exact at %d: %v vs %v", i, out[i], data[i])
			}
		}
	}
}

func TestMixedMagnitudes(t *testing.T) {
	data := []float32{1e-20, 1e20, -1e20, 1, -1, 0, 3.14, -2.71,
		1e10, -1e-10, 42, 0.001, 7e7, -7e-7, 0, 1e5}
	roundTrip(t, data, []int{16}, 1.0)
}

func TestSingletonDims(t *testing.T) {
	data := make([]float32, 128)
	for i := range data {
		data[i] = float32(i) / 8
	}
	roundTrip(t, data, []int{1, 128}, 1e-3)
	roundTrip(t, data, []int{1, 1, 128}, 1e-3)
	roundTrip(t, data, []int{8, 16}, 1e-3)
	roundTrip(t, data, []int{2, 8, 8}, 1e-3)
}

func TestOddLengths(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 15, 17, 63, 65} {
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(math.Sin(float64(i)))
		}
		roundTrip(t, data, []int{n}, 1e-4)
	}
}

func TestInvalidInputs(t *testing.T) {
	data := []float32{1, 2, 3, 4}
	if _, err := Compress(data, []int{5}, 1e-3); err == nil {
		t.Error("dims mismatch accepted")
	}
	if _, err := Compress(data, nil, 1e-3); err == nil {
		t.Error("nil dims accepted")
	}
	if _, err := Compress(data, []int{4}, 0); err == nil {
		t.Error("zero tolerance accepted")
	}
	if _, err := Compress(data, []int{4}, math.Inf(1)); err == nil {
		t.Error("infinite tolerance accepted")
	}
	// The shape caps are package wire's; the error is this package's.
	for _, dims := range [][]int{{1, 1, 1, 1, 1, 1, 1, 1, 4}, {4, 0}} {
		if _, err := Compress(data, dims, 1e-3); err == nil || !strings.HasPrefix(err.Error(), "zfp: ") {
			t.Errorf("dims %v: got %v, want a zfp error", dims, err)
		}
	}
}

func TestDecompressCorrupt(t *testing.T) {
	data := make([]float32, 300)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 5))
	}
	comp, err := Compress(data, []int{300}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 4, 11, len(comp) / 2} {
		if _, _, err := Decompress(comp[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	garbage := make([]byte, 64)
	if _, _, err := Decompress(garbage); err == nil {
		t.Error("garbage accepted")
	}
}

func TestLiftRoundTripExactOnAlignedValues(t *testing.T) {
	// Values divisible by 8 survive fwd+inv lift exactly (no bits lost to
	// the right-shifts).
	p := []int64{8, 16, -24, 32}
	want := append([]int64(nil), p...)
	fwdLift(p, 0, 1)
	invLift(p, 0, 1)
	for i := range p {
		if p[i] != want[i] {
			t.Fatalf("aligned lift mismatch at %d: %d vs %d", i, p[i], want[i])
		}
	}
}

func TestLiftRoundTripBoundedError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		p := make([]int64, 4)
		want := make([]int64, 4)
		for i := range p {
			p[i] = int64(rng.Intn(2001) - 1000)
			want[i] = p[i]
		}
		fwdLift(p, 0, 1)
		invLift(p, 0, 1)
		for i := range p {
			d := p[i] - want[i]
			if d < -4 || d > 4 {
				t.Fatalf("lift round-off too large: %v vs %v", p, want)
			}
		}
	}
}

func TestNegabinaryRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 1000, -1000, 1 << 40, -(1 << 40), math.MaxInt32, math.MinInt32} {
		if got := nb2int(int2nb(v)); got != v {
			t.Fatalf("negabinary round trip: %d -> %d", v, got)
		}
	}
}

func TestNegabinaryTruncationErrorBounded(t *testing.T) {
	// Zeroing planes below k changes the decoded integer by < 2^(k+1):
	// the property fixed-accuracy mode relies on.
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 5000; trial++ {
		v := int64(rng.Intn(1<<30) - 1<<29)
		k := uint(rng.Intn(20))
		nb := int2nb(v)
		trunc := nb &^ ((1 << k) - 1)
		got := nb2int(trunc)
		if d := got - v; d >= 1<<(k+1) || d <= -(1<<(k+1)) {
			t.Fatalf("truncation error |%d| >= 2^%d for v=%d k=%d", d, k+1, v, k)
		}
	}
}

func TestPermutationIsBijective(t *testing.T) {
	for dim := 1; dim <= 3; dim++ {
		perm := permFor(dim)
		n := blockSize(dim)
		if len(perm) != n {
			t.Fatalf("dim %d: perm len %d", dim, len(perm))
		}
		seen := make([]bool, n)
		for _, p := range perm {
			if p < 0 || p >= n || seen[p] {
				t.Fatalf("dim %d: invalid perm %v", dim, perm)
			}
			seen[p] = true
		}
		// First entry must be the DC coefficient (index 0).
		if perm[0] != 0 {
			t.Fatalf("dim %d: DC not first: %v", dim, perm[:4])
		}
	}
}

func TestPlaneCodingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 300; trial++ {
		size := []int{4, 16, 64}[rng.Intn(3)]
		nb := make([]uint64, size)
		for i := range nb {
			// Sparse-ish magnitudes like real transformed blocks.
			nb[i] = rng.Uint64() >> uint(rng.Intn(50)) & ((1 << hiPlane32) - 1)
		}
		kmin := rng.Intn(hiPlane32)
		kmax := hiPlane32
		w := newTestWriter()
		encodePlanes(w, nb, kmin, kmax)
		got := make([]uint64, size)
		if err := decodePlanes(newTestReader(w), got, kmin, kmax); err != nil {
			t.Fatalf("decodePlanes: %v", err)
		}
		mask := ^uint64(0) << uint(kmin)
		for i := range nb {
			if got[i] != nb[i]&mask&((1<<hiPlane32)-1) {
				t.Fatalf("plane mismatch at %d: got %#x want %#x (kmin=%d)",
					i, got[i], nb[i]&mask, kmin)
			}
		}
		// Tight kmax (leading-zero skip) must also round-trip.
		var all uint64
		for _, v := range nb {
			all |= v
		}
		tight := bitsLen(all)
		if tight < kmin {
			tight = kmin
		}
		w2 := newTestWriter()
		encodePlanes(w2, nb, kmin, tight)
		got2 := make([]uint64, size)
		if err := decodePlanes(newTestReader(w2), got2, kmin, tight); err != nil {
			t.Fatalf("decodePlanes tight: %v", err)
		}
		for i := range nb {
			if got2[i] != nb[i]&mask {
				t.Fatalf("tight kmax mismatch at %d: got %#x want %#x", i, got2[i], nb[i]&mask)
			}
		}
	}
}

// toleranceCase is TestQuickToleranceInvariant's generator: up to 1500
// normal values at magnitudes 1e-3..1e3 and a tolerance in 1e0..1e-5, so
// some cases put the tolerance near or below a float32 ULP of the data.
func toleranceCase(seed int64, tolExp uint8) (data []float32, eb float64) {
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(1500) + 1
	data = make([]float32, n)
	for i := range data {
		data[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
	}
	return data, math.Pow(10, -float64(tolExp%6))
}

// shapes reshapes n elements as 1-D, 2-D and 3-D arrays (trimming the tail
// that does not fill the last row or plane).
func shapes(n int) [][]int {
	out := [][]int{{n}}
	if n >= 7 {
		out = append(out, []int{n / 7, 7})
	}
	if n >= 35 {
		out = append(out, []int{n / 35, 5, 7})
	}
	return out
}

func TestQuickToleranceInvariant(t *testing.T) {
	f := func(seed int64, tolExp uint8) bool {
		data, eb := toleranceCase(seed, tolExp)
		comp, err := Compress(data, []int{len(data)}, eb)
		if err != nil {
			return false
		}
		out, _, err := Decompress(comp)
		if err != nil || len(out) != len(data) {
			return false
		}
		return maxAbsErr(data, out) <= eb
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.3, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestToleranceNearULP pins inputs whose tolerance sits within a float32
// ULP of the block magnitude. The verifier used to compare the float64
// reconstruction against the bound while the decoder stores it rounded to
// float32, so these decoded 1.2207e-4 off under a 1e-4 tolerance. The same
// inputs run through every dimensionality and the float64 codec.
func TestToleranceNearULP(t *testing.T) {
	cases := []struct {
		seed   int64
		tolExp uint8
	}{
		{-1507911686996155809, 4},
		{8315908794388812275, 0xac},
		{-3506659674458986639, 0xca},
		{-2097188650304622172, 0xd0},
		{-3442894213092434559, 0x88},
	}
	for _, c := range cases {
		data, eb := toleranceCase(c.seed, c.tolExp)
		for _, dims := range shapes(len(data)) {
			n := 1
			for _, d := range dims {
				n *= d
			}
			comp, err := Compress(data[:n], dims, eb)
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := Decompress(comp)
			if err != nil {
				t.Fatal(err)
			}
			if got := maxAbsErr(data[:n], out); got > eb {
				t.Errorf("seed %d dims %v: float32 error %g > tolerance %g", c.seed, dims, got, eb)
			}

			data64 := make([]float64, n)
			for i := range data64 {
				data64[i] = float64(data[i])
			}
			comp, err = Compress64(data64, dims, eb)
			if err != nil {
				t.Fatal(err)
			}
			out64, _, err := Decompress64(comp)
			if err != nil {
				t.Fatal(err)
			}
			if got := maxAbsErr64(data64, out64); got > eb {
				t.Errorf("seed %d dims %v: float64 error %g > tolerance %g", c.seed, dims, got, eb)
			}
		}
	}
}

func TestQuickTolerance3D(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d0, d1, d2 := rng.Intn(9)+1, rng.Intn(9)+1, rng.Intn(9)+1
		data := make([]float32, d0*d1*d2)
		for i := range data {
			data[i] = float32(math.Sin(float64(i)/4) * 50)
		}
		eb := 1e-2
		comp, err := Compress(data, []int{d0, d1, d2}, eb)
		if err != nil {
			return false
		}
		out, _, err := Decompress(comp)
		return err == nil && maxAbsErr(data, out) <= eb
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.3, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompressNYX(b *testing.B) {
	spec, _ := fpdata.Lookup("NYX", "")
	f := fpdata.Generate(spec, 16, 2)
	lo, hi := f.Range()
	eb := 1e-3 * float64(hi-lo)
	b.SetBytes(f.SizeBytes())
	b.ReportAllocs()
	b.ResetTimer()
	var compLen int
	for i := 0; i < b.N; i++ {
		comp, err := Compress(f.Data, f.Dims, eb)
		if err != nil {
			b.Fatal(err)
		}
		compLen = len(comp)
	}
	b.ReportMetric(float64(f.SizeBytes())/float64(compLen), "ratio")
}

func BenchmarkDecompressNYX(b *testing.B) {
	spec, _ := fpdata.Lookup("NYX", "")
	f := fpdata.Generate(spec, 16, 2)
	lo, hi := f.Range()
	comp, err := Compress(f.Data, f.Dims, 1e-3*float64(hi-lo))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(f.SizeBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decompress(comp); err != nil {
			b.Fatal(err)
		}
	}
}
