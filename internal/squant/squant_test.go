package squant

import (
	"math"
	"strings"
	"testing"

	"lcpio/internal/fpdata"
	"lcpio/internal/sz"
)

// The bound, worker identity, Into and hostile-bytes contracts are the
// compress package's conformance suite; these hold what only squant claims.

func TestBasicRoundTrip(t *testing.T) {
	data := make([]float32, 5000)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 40))
	}
	comp, err := Handle{}.Compress(data, []int{5000}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if r := float64(len(data)*4) / float64(len(comp)); r < 3 {
		t.Errorf("smooth data should compress >3x even without prediction, got %.2f", r)
	}
}

func TestConstantData(t *testing.T) {
	data := make([]float32, 1000)
	for i := range data {
		data[i] = 7.5
	}
	comp, err := Handle{}.Compress(data, []int{1000}, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) > 600 {
		t.Errorf("constant data compressed to %d bytes", len(comp))
	}
}

func TestExceptions(t *testing.T) {
	data := []float32{0, 1, float32(math.NaN()), float32(math.Inf(1)), -5,
		math.MaxFloat32, 3, 2, 1, 0, -1, -2, 0, 0, 1e-30, 42}
	comp, err := Handle{}.Compress(data, []int{16}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Handle{}.Decompress(comp)
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
	sq, err := Handle{}.Compress(f.Data, f.Dims, eb)
	if err != nil {
		t.Fatal(err)
	}
	szc, err := sz.NewHandle(0).Compress(f.Data, f.Dims, eb)
	if err != nil {
		t.Fatal(err)
	}
	if len(szc) >= len(sq) {
		t.Errorf("sz (%d B) should beat scalar quantization (%d B)", len(szc), len(sq))
	}
}

// TestValidation: a shape that does not fit the data and a bound that is not
// positive and finite are refused with a squant error, though the shape caps
// are package wire's.
func TestValidation(t *testing.T) {
	data := []float32{1, 2, 3}
	for _, c := range []struct {
		dims []int
		eb   float64
	}{
		{[]int{4}, 1e-3}, {nil, 1e-3}, {[]int{3}, 0}, {[]int{1, 1, 1, 1, 1, 1, 1, 1, 3}, 1e-3}, {[]int{3, 0}, 1e-3},
	} {
		if _, err := (Handle{}).Compress(data, c.dims, c.eb); err == nil || !strings.HasPrefix(err.Error(), "squant: ") {
			t.Errorf("dims %v eb %g: got %v, want a squant error", c.dims, c.eb, err)
		}
	}
}

func BenchmarkCompress(b *testing.B) {
	data := make([]float32, 1<<18)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 30))
	}
	b.SetBytes(int64(len(data) * 4))
	for i := 0; i < b.N; i++ {
		if _, err := (Handle{}).Compress(data, []int{len(data)}, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}
