package regress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synth generates fs on the paper's 50 MHz grid and ps from a known model
// plus optional noise.
func synth(a, b, c, sigma float64, seed int64) (fs, ps []float64) {
	rng := rand.New(rand.NewSource(seed))
	for f := 0.8; f <= 2.2001; f += 0.05 {
		fs = append(fs, f)
		p := a*math.Pow(f, b) + c
		if sigma > 0 {
			p += rng.NormFloat64() * sigma
		}
		ps = append(ps, p)
	}
	return
}

func TestRecoverExactBroadwellModel(t *testing.T) {
	// The paper's Broadwell compression fit: 0.0064 f^5.315 + 0.7429.
	fs, ps := synth(0.0064, 5.315, 0.7429, 0, 1)
	fit, err := FitPowerLaw(fs, ps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.B-5.315) > 0.05 {
		t.Fatalf("B = %v, want 5.315", fit.B)
	}
	if math.Abs(fit.C-0.7429) > 0.01 {
		t.Fatalf("C = %v, want 0.7429", fit.C)
	}
	if fit.GF.SSE > 1e-8 {
		t.Fatalf("noise-free SSE %v", fit.GF.SSE)
	}
}

func TestRecoverExactSkylakeModel(t *testing.T) {
	// The paper's Skylake compression fit: 2.235e-9 f^23.31 + 0.7941 —
	// an extreme exponent that defeats naive single-start descent.
	fs, ps := synth(2.235e-9, 23.31, 0.7941, 0, 2)
	fit, err := FitPowerLaw(fs, ps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.B-23.31) > 1.0 {
		t.Fatalf("B = %v, want ~23.31", fit.B)
	}
	if fit.GF.SSE > 1e-6 {
		t.Fatalf("SSE %v", fit.GF.SSE)
	}
}

func TestNoisyRecovery(t *testing.T) {
	fs, ps := synth(0.013, 3.4, 0.80, 0.01, 3)
	fit, err := FitPowerLaw(fs, ps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.B-3.4) > 1.2 {
		t.Fatalf("B = %v, want ~3.4", fit.B)
	}
	// Prediction quality matters more than parameter identity under noise.
	if fit.GF.RMSE > 0.02 {
		t.Fatalf("RMSE %v", fit.GF.RMSE)
	}
}

func TestEvalAndString(t *testing.T) {
	fit := PowerLawFit{A: 2, B: 3, C: 1}
	if fit.Eval(2) != 17 {
		t.Fatalf("Eval = %v", fit.Eval(2))
	}
	if fit.String() == "" {
		t.Fatal("empty String")
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := FitPowerLaw([]float64{1, 2}, []float64{1}); err != ErrBadInput {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FitPowerLaw([]float64{1, 2, 3}, []float64{1, 2, 3}); err != ErrTooFewPoints {
		t.Fatal("too few points accepted")
	}
	if _, err := FitPowerLaw([]float64{1, 2, 3, math.NaN()}, []float64{1, 2, 3, 4}); err != ErrBadInput {
		t.Fatal("NaN accepted")
	}
	if _, err := FitPowerLaw([]float64{-1, 2, 3, 4}, []float64{1, 2, 3, 4}); err != ErrBadInput {
		t.Fatal("negative frequency accepted")
	}
}

func TestConstantData(t *testing.T) {
	fs := []float64{0.8, 1.0, 1.2, 1.4, 1.6}
	ps := []float64{5, 5, 5, 5, 5}
	fit, err := FitPowerLaw(fs, ps)
	if err != nil {
		t.Fatal(err)
	}
	// Perfectly flat data: a ~ 0, c ~ 5 (or an equivalent).
	for _, f := range fs {
		if math.Abs(fit.Eval(f)-5) > 1e-6 {
			t.Fatalf("constant fit predicts %v at %v", fit.Eval(f), f)
		}
	}
}

func TestLinearSolveAC(t *testing.T) {
	fs := []float64{1, 2, 3, 4}
	// p = 2*f^2 + 3 exactly.
	ps := make([]float64, len(fs))
	for i, f := range fs {
		ps[i] = 2*f*f + 3
	}
	a, c, ok := linearSolveAC(fs, ps, 2)
	if !ok || math.Abs(a-2) > 1e-9 || math.Abs(c-3) > 1e-9 {
		t.Fatalf("linearSolveAC: a=%v c=%v ok=%v", a, c, ok)
	}
}

func TestSolve3(t *testing.T) {
	// x=1, y=2, z=3 for a known system.
	m := [3][4]float64{
		{2, 1, 1, 7},
		{1, 3, 2, 13},
		{1, 0, 0, 1},
	}
	sol, ok := solve3(m)
	if !ok {
		t.Fatal("solve3 failed")
	}
	want := [3]float64{1, 2, 3}
	for i := range want {
		if math.Abs(sol[i]-want[i]) > 1e-9 {
			t.Fatalf("solve3 = %v", sol)
		}
	}
	// Singular system must be rejected.
	sing := [3][4]float64{
		{1, 1, 1, 3},
		{2, 2, 2, 6},
		{0, 0, 1, 1},
	}
	if _, ok := solve3(sing); ok {
		t.Fatal("singular system accepted")
	}
}

// Property: fitting always returns finite parameters and non-negative SSE
// for positive, finite observations.
func TestQuickFitRobust(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(25) + 5
		fs := make([]float64, n)
		ps := make([]float64, n)
		for i := range fs {
			fs[i] = 0.5 + 2*rng.Float64()
			ps[i] = 0.1 + rng.Float64()*20
		}
		fit, err := FitPowerLaw(fs, ps)
		if err != nil {
			return false
		}
		return isFinite(fit.A) && isFinite(fit.B) && isFinite(fit.C) &&
			fit.GF.SSE >= 0 && isFinite(fit.GF.RMSE)
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.6, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the LM polish never worsens the grid seed's SSE.
func TestQuickPolishMonotone(t *testing.T) {
	f := func(seed int64, bScaled uint8) bool {
		b := 0.5 + float64(bScaled%30)
		fs, ps := synth(0.01, b, 0.8, 0.01, seed)
		fit, err := FitPowerLaw(fs, ps)
		if err != nil {
			return false
		}
		// The final SSE must be at most the best pure-grid SSE.
		gridOnly := math.Inf(1)
		for gb := minExponent; gb <= maxExponent; gb *= 1.12 {
			if a, c, ok := linearSolveAC(fs, ps, gb); ok {
				if s := sseFor(fs, ps, a, gb, c); s < gridOnly {
					gridOnly = s
				}
			}
		}
		return fit.GF.SSE <= gridOnly*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFitPowerLaw(b *testing.B) {
	fs, ps := synth(0.0064, 5.315, 0.7429, 0.01, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FitPowerLaw(fs, ps); err != nil {
			b.Fatal(err)
		}
	}
}
