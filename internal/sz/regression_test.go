package sz

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lcpio/internal/fpdata"
)

func regOpts() Options {
	o := Defaults()
	o.PredictorOrder = 2
	return o
}

func regRoundTrip(t *testing.T, data []float32, dims []int, eb float64) []byte {
	t.Helper()
	comp, err := CompressOpts(data, dims, eb, regOpts())
	if err != nil {
		t.Fatalf("CompressOpts: %v", err)
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
		t.Fatalf("error bound violated: %g > %g", e, eb)
	}
	return comp
}

func TestRegressionRoundTrip1D(t *testing.T) {
	data := make([]float32, 1000)
	for i := range data {
		data[i] = float32(i)*0.5 + float32(math.Sin(float64(i)/40))
	}
	regRoundTrip(t, data, []int{1000}, 1e-3)
}

func TestRegressionRoundTrip2D(t *testing.T) {
	d1, d2 := 50, 70
	data := make([]float32, d1*d2)
	for i := 0; i < d1; i++ {
		for j := 0; j < d2; j++ {
			data[i*d2+j] = float32(3*i) - float32(2*j) + float32(math.Sin(float64(i+j)/9))
		}
	}
	regRoundTrip(t, data, []int{d1, d2}, 1e-3)
}

func TestRegressionRoundTrip3D(t *testing.T) {
	d := 20 // partial blocks at every edge (6 does not divide 20)
	data := make([]float32, d*d*d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			for k := 0; k < d; k++ {
				data[(i*d+j)*d+k] = float32(i) + 0.5*float32(j) - 0.25*float32(k)
			}
		}
	}
	regRoundTrip(t, data, []int{d, d, d}, 1e-4)
}

func TestRegressionWinsOnPiecewiseLinearData(t *testing.T) {
	// Block-wise linear ramps with jumps between blocks: the regression
	// predictor should clearly beat pure Lorenzo (which stumbles on the
	// in-block gradients after each jump).
	d := 24
	rng := rand.New(rand.NewSource(9))
	data := make([]float32, d*d*d)
	for bi := 0; bi < d; bi += 6 {
		slope := rng.Float64()*10 - 5
		base := rng.Float64() * 1000
		for i := bi; i < bi+6 && i < d; i++ {
			for j := 0; j < d; j++ {
				for k := 0; k < d; k++ {
					data[(i*d+j)*d+k] = float32(base + slope*float64(i+2*j+3*k))
				}
			}
		}
	}
	eb := 1e-3
	hybrid, err := CompressOpts(data, []int{d, d, d}, eb, regOpts())
	if err != nil {
		t.Fatal(err)
	}
	lorenzo, err := CompressOpts(data, []int{d, d, d}, eb, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(hybrid) >= len(lorenzo) {
		t.Errorf("hybrid (%d B) should beat Lorenzo (%d B) on piecewise-linear data",
			len(hybrid), len(lorenzo))
	}
	out, _, err := Decompress(hybrid)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxAbsErr(data, out); e > eb {
		t.Fatalf("hybrid bound violated: %g", e)
	}
}

func TestRegressionNeverMuchWorseOnRealFields(t *testing.T) {
	// On the paper's datasets, the per-block selection means the hybrid
	// should stay within a small factor of pure Lorenzo even where Lorenzo
	// is the better predictor everywhere.
	for _, name := range []string{"CESM-ATM", "NYX", "HACC"} {
		spec, _ := fpdata.Lookup(name, "")
		f := fpdata.Generate(spec, spec.ScaleFor(1<<14), 4)
		lo, hi := f.Range()
		eb := 1e-3 * float64(hi-lo)
		hybrid, err := CompressOpts(f.Data, f.Dims, eb, regOpts())
		if err != nil {
			t.Fatalf("%s hybrid: %v", name, err)
		}
		lorenzo, err := CompressOpts(f.Data, f.Dims, eb, Defaults())
		if err != nil {
			t.Fatalf("%s lorenzo: %v", name, err)
		}
		if len(hybrid) > len(lorenzo)*6/5 {
			t.Errorf("%s: hybrid %d B more than 20%% above Lorenzo %d B",
				name, len(hybrid), len(lorenzo))
		}
		out, _, err := Decompress(hybrid)
		if err != nil {
			t.Fatalf("%s decompress: %v", name, err)
		}
		if e := maxAbsErr(f.Data, out); e > eb {
			t.Fatalf("%s: bound violated: %g > %g", name, e, eb)
		}
	}
}

func TestRegressionNonFiniteFallsBack(t *testing.T) {
	data := make([]float32, 216) // one 6x6x6 block
	for i := range data {
		data[i] = float32(i)
	}
	data[17] = float32(math.Inf(1))
	comp, err := CompressOpts(data, []int{6, 6, 6}, 1e-3, regOpts())
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(out[17]), 1) {
		t.Errorf("Inf not preserved: %v", out[17])
	}
	for i, v := range out {
		if i == 17 {
			continue
		}
		if math.Abs(float64(v)-float64(data[i])) > 1e-3 {
			t.Fatalf("bound violated at %d", i)
		}
	}
}

func TestFitBlockExactOnLinearData(t *testing.T) {
	d1, d2 := 6, 6
	data := make([]float32, 6*d1*d2)
	for i := 0; i < 6; i++ {
		for j := 0; j < d1; j++ {
			for k := 0; k < d2; k++ {
				data[(i*d1+j)*d2+k] = 2 + 3*float32(i) - float32(j) + 0.5*float32(k)
			}
		}
	}
	c, sse := fitBlock3D(data, d1, d2, 0, 6, 0, 6, 0, 6)
	if sse > 1e-6 {
		t.Fatalf("linear block SSE %g, want ~0", sse)
	}
	if math.Abs(c.b1-3) > 1e-5 || math.Abs(c.b2+1) > 1e-5 || math.Abs(c.b3-0.5) > 1e-5 {
		t.Fatalf("slopes: %+v", c)
	}
}

func TestFitBlockSingleElement(t *testing.T) {
	data := []float32{7}
	c, sse := fitBlock3D(data, 1, 1, 0, 1, 0, 1, 0, 1)
	if sse != 0 || c.mean != 7 || c.b1 != 0 || c.b2 != 0 || c.b3 != 0 {
		t.Fatalf("single-element fit: %+v sse=%g", c, sse)
	}
}

func TestPackUnpackBools(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 64, 65} {
		bs := make([]bool, n)
		for i := range bs {
			bs[i] = i%3 == 0
		}
		got := unpackBools(packBools(bs), n)
		for i := range bs {
			if got[i] != bs[i] {
				t.Fatalf("n=%d mismatch at %d", n, i)
			}
		}
	}
}

func TestPackUnpackCoeffs(t *testing.T) {
	coeffs := []regCoeffs{
		{mean: 1, b1: 2, b2: 3, b3: 4},
		{mean: -5, b1: 0.25, b2: -0.5, b3: 8},
	}
	for dim := 1; dim <= 3; dim++ {
		packed := packCoeffs(coeffs, dim)
		got, err := unpackCoeffs(packed, dim)
		if err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
		if len(got) != 2 {
			t.Fatalf("dim %d: %d coeffs", dim, len(got))
		}
		// b3 always survives; higher-axis slopes only for higher dims.
		for i := range coeffs {
			if got[i].mean != coeffs[i].mean || got[i].b3 != coeffs[i].b3 {
				t.Fatalf("dim %d coeff %d: %+v", dim, i, got[i])
			}
		}
	}
	if _, err := unpackCoeffs(make([]float32, 5), 3); err == nil {
		t.Fatal("misaligned coeffs accepted")
	}
}

// Property: the error bound holds in regression mode for random data.
func TestQuickRegressionErrorBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d0, d1, d2 := rng.Intn(10)+1, rng.Intn(10)+1, rng.Intn(10)+1
		data := make([]float32, d0*d1*d2)
		for i := range data {
			data[i] = float32(rng.NormFloat64() * 100)
		}
		eb := 1e-2
		comp, err := CompressOpts(data, []int{d0, d1, d2}, eb, regOpts())
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

// Ablation bench: hybrid vs Lorenzo predictor on NYX (DESIGN.md §5).
func BenchmarkHybridPredictor(b *testing.B) {
	spec, _ := fpdata.Lookup("NYX", "")
	f := fpdata.Generate(spec, 16, 2)
	lo, hi := f.Range()
	eb := 1e-3 * float64(hi-lo)
	for name, order := range map[string]int{"lorenzo": 1, "hybrid": 2} {
		b.Run(name, func(b *testing.B) {
			o := Defaults()
			o.PredictorOrder = order
			b.SetBytes(f.SizeBytes())
			var compLen int
			for i := 0; i < b.N; i++ {
				comp, err := CompressOpts(f.Data, f.Dims, eb, o)
				if err != nil {
					b.Fatal(err)
				}
				compLen = len(comp)
			}
			b.ReportMetric(float64(f.SizeBytes())/float64(compLen), "ratio")
		})
	}
}
