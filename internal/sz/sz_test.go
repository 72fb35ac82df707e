package sz

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lcpio/internal/fpdata"
	"lcpio/internal/wire"
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

func roundTrip(t *testing.T, data []float32, dims []int, eb float64) ([]byte, []float32) {
	t.Helper()
	comp, err := Compress(data, dims, eb)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	out, gotDims, err := Decompress(comp)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if len(gotDims) != len(dims) {
		t.Fatalf("dims %v, want %v", gotDims, dims)
	}
	for i := range dims {
		if gotDims[i] != dims[i] {
			t.Fatalf("dims %v, want %v", gotDims, dims)
		}
	}
	if len(out) != len(data) {
		t.Fatalf("len %d, want %d", len(out), len(data))
	}
	if e := maxAbsErr(data, out); e > eb {
		t.Fatalf("error bound violated: %g > %g", e, eb)
	}
	return comp, out
}

func TestConstantField(t *testing.T) {
	data := make([]float32, 4096)
	for i := range data {
		data[i] = 3.25
	}
	comp, _ := roundTrip(t, data, []int{4096}, 1e-3)
	if len(comp) > 2048 {
		t.Fatalf("constant field should compress tiny, got %d bytes", len(comp))
	}
}

func TestLinearRamp1D(t *testing.T) {
	data := make([]float32, 10000)
	for i := range data {
		data[i] = float32(i) * 0.001
	}
	comp, _ := roundTrip(t, data, []int{10000}, 1e-4)
	if r := float64(len(data)*4) / float64(len(comp)); r < 10 {
		t.Fatalf("linear ramp should compress >10x, got %.1f", r)
	}
}

func TestSmooth2D(t *testing.T) {
	d1, d2 := 64, 128
	data := make([]float32, d1*d2)
	for i := 0; i < d1; i++ {
		for j := 0; j < d2; j++ {
			data[i*d2+j] = float32(math.Sin(float64(i)/9) * math.Cos(float64(j)/11))
		}
	}
	roundTrip(t, data, []int{d1, d2}, 1e-3)
}

func TestSmooth3D(t *testing.T) {
	d := 24
	data := make([]float32, d*d*d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			for k := 0; k < d; k++ {
				data[(i*d+j)*d+k] = float32(math.Sin(float64(i+j+k) / 5))
			}
		}
	}
	roundTrip(t, data, []int{d, d, d}, 1e-4)
}

func TestErrorBoundSweep(t *testing.T) {
	spec, _ := fpdata.Lookup("NYX", "")
	f := fpdata.Generate(spec, 32, 5)
	lo, hi := f.Range()
	rng := float64(hi - lo)
	var prevSize int
	for _, rel := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
		eb := rel * rng
		comp, _ := roundTrip(t, f.Data, f.Dims, eb)
		if prevSize > 0 && len(comp) < prevSize {
			t.Errorf("finer bound %g produced smaller stream (%d < %d)", rel, len(comp), prevSize)
		}
		prevSize = len(comp)
	}
}

func TestRandomNoiseStillBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]float32, 5000)
	for i := range data {
		data[i] = float32(rng.NormFloat64() * 1e6)
	}
	roundTrip(t, data, []int{5000}, 0.5)
}

func TestExtremeValues(t *testing.T) {
	data := []float32{0, math.MaxFloat32, -math.MaxFloat32, 1e-38, -1e-38,
		1, -1, 65504, 3.4e38, -3.4e38, 0, 0, 0, 0, 0, 0}
	roundTrip(t, data, []int{len(data)}, 1e-3)
}

func TestSingleElement(t *testing.T) {
	roundTrip(t, []float32{42.5}, []int{1}, 1e-2)
}

func TestHACCStyle1D(t *testing.T) {
	spec, _ := fpdata.Lookup("HACC", "")
	f := fpdata.Generate(spec, 20000, 9)
	lo, hi := f.Range()
	roundTrip(t, f.Data, f.Dims, 1e-2*float64(hi-lo))
}

func TestCESMStyle3D(t *testing.T) {
	spec, _ := fpdata.Lookup("CESM-ATM", "")
	f := fpdata.Generate(spec, 32, 9)
	lo, hi := f.Range()
	roundTrip(t, f.Data, f.Dims, 1e-3*float64(hi-lo))
}

func TestLeadingSingletonDimsTreatedAs1D(t *testing.T) {
	// HACC's shape is 1 x N; it must take the 1-D path and round-trip.
	data := make([]float32, 2048)
	for i := range data {
		data[i] = float32(i % 17)
	}
	roundTrip(t, data, []int{1, 2048}, 1e-3)
}

func TestEffectiveDim(t *testing.T) {
	cases := []struct {
		dims []int
		want int
	}{
		{[]int{100}, 1}, {[]int{1, 100}, 1}, {[]int{1, 1, 100}, 1},
		{[]int{4, 4}, 2}, {[]int{1, 4, 4}, 2}, {[]int{4, 4, 4}, 3},
		{[]int{2, 2, 2, 2}, 3},
	}
	for _, c := range cases {
		if got, _, _, _ := wire.Collapse(c.dims); got != c.want {
			t.Errorf("effectiveDim(%v) = %d, want %d", c.dims, got, c.want)
		}
	}
}

func TestSquash3FoldsExtraDims(t *testing.T) {
	_, d0, d1, d2 := wire.Collapse([]int{2, 3, 4, 5})
	if d0 != 6 || d1 != 4 || d2 != 5 {
		t.Fatalf("squash3: %d %d %d", d0, d1, d2)
	}
}

func TestInvalidInputs(t *testing.T) {
	data := []float32{1, 2, 3}
	if _, err := Compress(data, []int{4}, 1e-3); err == nil {
		t.Error("dims/data mismatch accepted")
	}
	if _, err := Compress(data, nil, 1e-3); err == nil {
		t.Error("empty dims accepted")
	}
	if _, err := Compress(data, []int{3}, 0); err == nil {
		t.Error("zero error bound accepted")
	}
	if _, err := Compress(data, []int{3}, -1); err == nil {
		t.Error("negative error bound accepted")
	}
	// The shape caps are package wire's; the error is this package's.
	for _, dims := range [][]int{{1, 1, 1, 1, 1, 1, 1, 1, 3}, {3, 0}} {
		if _, err := Compress(data, dims, 1e-3); err == nil || !strings.HasPrefix(err.Error(), "sz: ") {
			t.Errorf("dims %v: got %v, want an sz error", dims, err)
		}
	}
	if _, err := Compress(data, []int{3}, math.NaN()); err == nil {
		t.Error("NaN error bound accepted")
	}
	if _, err := Compress(data, []int{-3}, 1e-3); err == nil {
		t.Error("negative dim accepted")
	}
}

func TestDecompressCorrupt(t *testing.T) {
	data := make([]float32, 1000)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 10))
	}
	comp, err := Compress(data, []int{1000}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, len(comp) / 2, len(comp) - 1} {
		if _, _, err := Decompress(comp[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, _, err := Decompress([]byte("definitely not a stream")); err == nil {
		t.Error("garbage accepted")
	}
}

// Property: for arbitrary finite data, the absolute error bound holds.
func TestQuickErrorBoundInvariant(t *testing.T) {
	f := func(seed int64, ebExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(2000) + 1
		data := make([]float32, n)
		for i := range data {
			// Mix of scales, including subnormals and large magnitudes.
			data[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
		}
		eb := math.Pow(10, -float64(ebExp%6)) // 1 .. 1e-5
		comp, err := Compress(data, []int{n}, eb)
		if err != nil {
			return false
		}
		out, _, err := Decompress(comp)
		if err != nil || len(out) != n {
			return false
		}
		return maxAbsErr(data, out) <= eb
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.4, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: 2-D and 3-D paths preserve the bound for random smooth fields.
func TestQuickErrorBoundMultiDim(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d1, d2 := rng.Intn(30)+2, rng.Intn(30)+2
		data := make([]float32, d1*d2)
		for i := range data {
			data[i] = float32(math.Sin(float64(i)/3) * 100)
		}
		eb := 1e-3
		comp, err := Compress(data, []int{d1, d2}, eb)
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

func TestIdempotentRecompression(t *testing.T) {
	// Compressing already-reconstructed data at the same bound must keep
	// values within bound of the *original* reconstruction (stability).
	data := make([]float32, 2000)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 20))
	}
	eb := 1e-3
	comp1, _ := Compress(data, []int{2000}, eb)
	out1, _, _ := Decompress(comp1)
	comp2, _ := Compress(out1, []int{2000}, eb)
	out2, _, err := Decompress(comp2)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxAbsErr(out1, out2); e > eb {
		t.Fatalf("recompression drift %g > %g", e, eb)
	}
}

// BenchmarkCompressField compresses one rank of each sz workload of the
// end-to-end benchmark — NYX velocity_x at 1e-3 of its range, where
// predict/quantize owns the time, and HACC vx at 1e-4, where the entropy and
// lossless stages do — on one worker, so ns/op is the per-rank CPU cost.
func BenchmarkCompressField(b *testing.B) {
	for _, tc := range []struct {
		dataset string
		rel     float64
	}{{"NYX", 1e-3}, {"HACC", 1e-4}} {
		b.Run(tc.dataset, func(b *testing.B) {
			spec, _ := fpdata.Lookup(tc.dataset, "")
			f := fpdata.Generate(spec, spec.ScaleFor(2<<20), 0)
			lo, hi := f.Range()
			eb := tc.rel * float64(hi-lo)
			h := NewHandle(1)
			dst, err := h.CompressAppend(nil, f.Data, f.Dims, eb)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(f.SizeBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dst, err = h.CompressAppend(dst[:0], f.Data, f.Dims, eb); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(f.SizeBytes())/float64(len(dst)), "ratio")
		})
	}
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

// BenchmarkDecompress2D decodes through reconstruct2D, which no fpdata field
// reaches on its own (every generator is 1-D or 3-D): the CESM climate stack
// read as one tall sheet, on one worker.
func BenchmarkDecompress2D(b *testing.B) {
	spec, _ := fpdata.Lookup("CESM-ATM", "")
	f := fpdata.Generate(spec, spec.ScaleFor(1<<20), 1)
	lo, hi := f.Range()
	h := NewHandle(1)
	comp, err := h.Compress(f.Data, []int{f.Dims[0] * f.Dims[1], f.Dims[2]}, 1e-3*float64(hi-lo))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(f.SizeBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := h.Decompress(comp); err != nil {
			b.Fatal(err)
		}
	}
}
