package sz

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPred2DBorders(t *testing.T) {
	// 2x3 reconstructed grid:
	//  1 2 3
	//  4 5 .
	recon := []float32{1, 2, 3, 4, 5, 0}
	d2 := 3
	cases := []struct {
		i, j int
		want float64
	}{
		{0, 0, 0},         // origin: no neighbors
		{0, 1, 1},         // first row: left neighbor
		{0, 2, 2},         // first row: left neighbor
		{1, 0, 1},         // first column: upper neighbor
		{1, 1, 4 + 2 - 1}, // interior: full Lorenzo stencil
		{1, 2, 5 + 3 - 2}, // interior
	}
	for _, c := range cases {
		if got := pred2D(recon, c.i, c.j, d2); got != c.want {
			t.Errorf("pred2D(%d,%d) = %v, want %v", c.i, c.j, got, c.want)
		}
	}
}

func TestPred3DInclusionExclusion(t *testing.T) {
	// For a trilinear function f(i,j,k) = a + bi + cj + dk, the 3-D
	// Lorenzo stencil predicts interior points exactly.
	d1, d2 := 3, 3
	recon := make([]float32, 3*d1*d2)
	f := func(i, j, k int) float32 {
		return float32(7 + 2*i - 3*j + 5*k)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < d1; j++ {
			for k := 0; k < d2; k++ {
				recon[(i*d1+j)*d2+k] = f(i, j, k)
			}
		}
	}
	for i := 1; i < 3; i++ {
		for j := 1; j < d1; j++ {
			for k := 1; k < d2; k++ {
				got := pred3D(recon, i, j, k, d1, d2)
				if math.Abs(got-float64(f(i, j, k))) > 1e-9 {
					t.Errorf("pred3D(%d,%d,%d) = %v, want %v", i, j, k, got, f(i, j, k))
				}
			}
		}
	}
	// Origin predicts 0; axis edges degrade to lower-order stencils.
	if pred3D(recon, 0, 0, 0, d1, d2) != 0 {
		t.Error("origin prediction not 0")
	}
	if got := pred3D(recon, 0, 0, 1, d1, d2); got != float64(f(0, 0, 0)) {
		t.Errorf("k-edge prediction %v", got)
	}
}

func TestQuantizeOneExactCenter(t *testing.T) {
	// A value exactly at the prediction quantizes to the center code and
	// reconstructs exactly.
	code, recon, ok := quantizeOne[float32](5.0, 5.0, 2e-3, 1e-3, 1<<15)
	if !ok || code != 1<<15 || recon != 5.0 {
		t.Fatalf("center: code=%d recon=%v ok=%v", code, recon, ok)
	}
}

func TestQuantizeOneRangeLimits(t *testing.T) {
	radius := 8 // tiny quantizer for the test
	// Diff just inside the representable range quantizes...
	if _, _, ok := quantizeOne[float32](float32(2*1e-3*6), 0, 2e-3, 1e-3, radius); !ok {
		t.Error("in-range diff rejected")
	}
	// ... and just beyond it falls back to exact storage.
	if _, _, ok := quantizeOne[float32](float32(2*1e-3*9), 0, 2e-3, 1e-3, radius); ok {
		t.Error("out-of-range diff accepted")
	}
}

func TestQuantizeOneNonFinitePrediction(t *testing.T) {
	// A NaN prediction (possible from corrupted neighbors) must not
	// produce a bogus quantization.
	if _, _, ok := quantizeOne[float32](1.0, math.NaN(), 2e-3, 1e-3, 1<<15); ok {
		t.Error("NaN prediction accepted")
	}
	if _, _, ok := quantizeOne[float32](1.0, math.Inf(1), 2e-3, 1e-3, 1<<15); ok {
		t.Error("Inf prediction accepted")
	}
}

// Property: whenever quantizeOne accepts, dequantOne of its code under the
// same prediction returns the same reconstruction, within the bound.
func TestQuickQuantDequantConsistent(t *testing.T) {
	f := func(val float32, pred float64) bool {
		if math.IsNaN(float64(val)) || math.IsInf(float64(val), 0) ||
			math.IsNaN(pred) || math.IsInf(pred, 0) || math.Abs(pred) > 1e30 {
			return true
		}
		eb := 1e-3
		code, recon, ok := quantizeOne(val, pred, 2*eb, eb, 1<<15)
		if !ok {
			return true
		}
		back := dequantOne[float32](code, pred, 2*eb, 1<<15)
		return back == recon && math.Abs(float64(recon)-float64(val)) <= eb
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 5, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
