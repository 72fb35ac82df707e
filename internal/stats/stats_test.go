package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5, 1e-12) {
		t.Fatal("mean")
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1: 32/7.
	if !almost(Variance(xs), 32.0/7, 1e-12) {
		t.Fatalf("variance %v", Variance(xs))
	}
	if Variance([]float64{5}) != 0 {
		t.Fatal("single-sample variance must be 0")
	}
	if !almost(StdDev(xs), math.Sqrt(32.0/7), 1e-12) {
		t.Fatal("stddev")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -1, 7, 2})
	if err != nil || lo != -1 || hi != 7 {
		t.Fatalf("MinMax: %v %v %v", lo, hi, err)
	}
	if _, _, err := MinMax(nil); err != ErrEmpty {
		t.Fatal("empty MinMax should error")
	}
}

func TestMedian(t *testing.T) {
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if Median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median")
	}
	if Median(nil) != 0 {
		t.Fatal("empty median")
	}
	// Median must not mutate its input.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 {
		t.Fatal("Median mutated input")
	}
}

func TestTCritical(t *testing.T) {
	if !almost(TCritical95(9), 2.262, 1e-9) {
		t.Fatal("t(9)")
	}
	if !almost(TCritical95(100), 1.96, 1e-9) {
		t.Fatal("t(100)")
	}
	if !math.IsInf(TCritical95(0), 1) {
		t.Fatal("t(0)")
	}
}

func TestCI95KnownCase(t *testing.T) {
	// 10 repetitions — the paper's repeat count — uses t(9)=2.262.
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = float64(i)
	}
	want := 2.262 * StdDev(xs) / math.Sqrt(10)
	if !almost(CI95(xs), want, 1e-12) {
		t.Fatalf("CI95 %v want %v", CI95(xs), want)
	}
	if CI95([]float64{1}) != 0 {
		t.Fatal("CI of single sample must be 0")
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Fatalf("Summary %+v", s)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatal("empty Summarize should error")
	}
}

func TestFitPerfect(t *testing.T) {
	obs := []float64{1, 2, 3, 4}
	gf, err := Fit(obs, obs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if gf.SSE != 0 || gf.RMSE != 0 || gf.R2 != 1 {
		t.Fatalf("perfect fit: %+v", gf)
	}
}

func TestFitKnownResiduals(t *testing.T) {
	obs := []float64{1, 2, 3, 4, 5}
	pred := []float64{1.1, 1.9, 3.1, 3.9, 5.1}
	gf, err := Fit(obs, pred, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(gf.SSE, 0.05, 1e-12) {
		t.Fatalf("SSE %v", gf.SSE)
	}
	// dof = 5-2 = 3.
	if !almost(gf.RMSE, math.Sqrt(0.05/3), 1e-12) {
		t.Fatalf("RMSE %v", gf.RMSE)
	}
	if gf.R2 < 0.99 {
		t.Fatalf("R2 %v", gf.R2)
	}
}

func TestFitMismatch(t *testing.T) {
	if _, err := Fit([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Fit(nil, nil, 1); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestFitConstantObservations(t *testing.T) {
	// SST = 0: R2 degenerate, must not NaN.
	gf, err := Fit([]float64{2, 2, 2}, []float64{2, 2, 2.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(gf.R2) {
		t.Fatal("R2 NaN on constant observations")
	}
}

func TestScaleBy(t *testing.T) {
	out := ScaleBy([]float64{2, 4, 8}, 4)
	want := []float64{0.5, 1, 2}
	for i := range want {
		if !almost(out[i], want[i], 1e-12) {
			t.Fatalf("ScaleBy: %v", out)
		}
	}
	zero := ScaleBy([]float64{1, 2}, 0)
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatal("ScaleBy zero ref should zero out")
	}
}

// Property: CI95 shrinks as ~1/sqrt(n) for iid noise.
func TestQuickCIShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sample := func(n int) float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		return CI95(xs)
	}
	var small, large float64
	for i := 0; i < 30; i++ {
		small += sample(10)
		large += sample(1000)
	}
	if large >= small/3 {
		t.Fatalf("CI did not shrink with n: %v vs %v", large/30, small/30)
	}
}

// Property: variance is translation-invariant and scales quadratically.
func TestQuickVarianceProperties(t *testing.T) {
	f := func(seed int64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 2
		xs := make([]float64, n)
		ys := make([]float64, n)
		zs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			ys[i] = xs[i] + shift
			zs[i] = xs[i] * 3
		}
		v := Variance(xs)
		return almost(Variance(ys), v, 1e-6*(1+v)) &&
			almost(Variance(zs), 9*v, 1e-6*(1+9*v))
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 1, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
