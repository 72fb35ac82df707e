package squant

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lcpio/internal/fpdata"
	"lcpio/internal/sz"
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
	if len(out) != len(data) || len(gotDims) != len(dims) {
		t.Fatal("shape mismatch")
	}
	if e := maxAbsErr(data, out); e > eb {
		t.Fatalf("bound violated: %g > %g", e, eb)
	}
	return comp
}

func TestBasicRoundTrip(t *testing.T) {
	data := make([]float32, 5000)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 40))
	}
	comp := roundTrip(t, data, []int{5000}, 1e-3)
	if r := float64(len(data)*4) / float64(len(comp)); r < 3 {
		t.Errorf("smooth data should compress >3x even without prediction, got %.2f", r)
	}
}

func TestConstantData(t *testing.T) {
	data := make([]float32, 1000)
	for i := range data {
		data[i] = 7.5
	}
	comp := roundTrip(t, data, []int{1000}, 1e-4)
	if len(comp) > 600 {
		t.Errorf("constant data compressed to %d bytes", len(comp))
	}
}

func TestExceptions(t *testing.T) {
	data := []float32{0, 1, float32(math.NaN()), float32(math.Inf(1)), -5,
		math.MaxFloat32, 3, 2, 1, 0, -1, -2, 0, 0, 1e-30, 42}
	comp, err := Compress(data, []int{16}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(out[2])) || !math.IsInf(float64(out[3]), 1) {
		t.Error("specials not preserved")
	}
	if out[5] != math.MaxFloat32 {
		t.Errorf("huge value not exact: %v", out[5])
	}
}

func TestSZBeatsScalarQuantization(t *testing.T) {
	// The whole point of the baseline: prediction should beat it clearly
	// on smooth multidimensional data.
	spec, _ := fpdata.Lookup("NYX", "")
	f := fpdata.Generate(spec, spec.ScaleFor(1<<15), 4)
	lo, hi := 0.0, 0.0
	for _, v := range f.Data {
		lo = math.Min(lo, float64(v))
		hi = math.Max(hi, float64(v))
	}
	eb := 1e-3 * (hi - lo)
	sq, err := Compress(f.Data, f.Dims, eb)
	if err != nil {
		t.Fatal(err)
	}
	szc, err := sz.Compress(f.Data, f.Dims, eb)
	if err != nil {
		t.Fatal(err)
	}
	if len(szc) >= len(sq) {
		t.Errorf("sz (%d B) should beat scalar quantization (%d B)", len(szc), len(sq))
	}
}

func TestValidation(t *testing.T) {
	data := []float32{1, 2, 3}
	if _, err := Compress(data, []int{4}, 1e-3); err == nil {
		t.Error("dims mismatch accepted")
	}
	if _, err := Compress(data, nil, 1e-3); err == nil {
		t.Error("empty dims accepted")
	}
	if _, err := Compress(data, []int{3}, 0); err == nil {
		t.Error("zero bound accepted")
	}
	// The shape caps are package wire's; the error is this package's.
	for _, dims := range [][]int{{1, 1, 1, 1, 1, 1, 1, 1, 3}, {3, 0}} {
		if _, err := Compress(data, dims, 1e-3); err == nil || !strings.HasPrefix(err.Error(), "squant: ") {
			t.Errorf("dims %v: got %v, want a squant error", dims, err)
		}
	}
	if _, _, err := Decompress([]byte("junk")); err == nil {
		t.Error("garbage accepted")
	}
	comp, _ := Compress(data, []int{3}, 1e-3)
	for _, cut := range []int{0, 1, len(comp) - 1} {
		if _, _, err := Decompress(comp[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestQuickBoundInvariant(t *testing.T) {
	f := func(seed int64, ebExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3000) + 1
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
		}
		eb := math.Pow(10, -float64(ebExp%6))
		comp, err := Compress(data, []int{n}, eb)
		if err != nil {
			return false
		}
		out, _, err := Decompress(comp)
		return err == nil && maxAbsErr(data, out) <= eb
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.4, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompress(b *testing.B) {
	data := make([]float32, 1<<18)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 30))
	}
	b.SetBytes(int64(len(data) * 4))
	for i := 0; i < b.N; i++ {
		if _, err := Compress(data, []int{len(data)}, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}
