package core

import (
	"math"
	"testing"

	"lcpio/internal/perf"
	"lcpio/internal/phases"
	"lcpio/internal/stats"
)

// TestPaperRecommendation pins the rule the headlines price with to Eqn 3.
func TestPaperRecommendation(t *testing.T) {
	if r := phases.PaperRule(); r.CompressionFraction != 0.875 || r.WritingFraction != 0.85 || r.String() == "" {
		t.Fatalf("Eqn 3: %+v", r)
	}
}

func TestEnergyOptimalBeatsEndpoints(t *testing.T) {
	cs, _ := sharedStudies(t)
	sw := cs.Entries[0].Sweep
	frac, err := EnergyOptimalFraction(sw)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := SavingsAt(sw, frac)
	if err != nil {
		t.Fatal(err)
	}
	if opt.EnergyPct < 0 {
		t.Errorf("optimal fraction %.3f loses energy: %+v", frac, opt)
	}
	// And it must beat (or match) both endpoints by construction.
	atMin, _ := SavingsAt(sw, sw.Points[0].FreqGHz/sw.Points[len(sw.Points)-1].FreqGHz)
	if atMin.EnergyPct > opt.EnergyPct+1e-9 {
		t.Errorf("fmin energy savings %.2f%% beat the optimum %.2f%%", atMin.EnergyPct, opt.EnergyPct)
	}
}

func TestSavingsAtValidation(t *testing.T) {
	if _, err := SavingsAt(perf.Sweep{}, 0.9); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, err := (&Study{}).Savings(0.9); err == nil {
		t.Fatal("empty study accepted")
	}
	if _, err := EnergyOptimalFraction(perf.Sweep{}); err == nil {
		t.Fatal("empty sweep accepted by optimizer")
	}
	if _, _, err := AverageDumpSavings(nil); err == nil {
		t.Fatal("empty dump results accepted")
	}
}

func TestSavingsString(t *testing.T) {
	s := Savings{Fraction: 0.875, PowerPct: 19.4, RuntimePct: 7.5, EnergyPct: 13.4}
	if s.String() == "" || (DumpResult{}).String() == "" || (Headlines{}).String() == "" {
		t.Fatal("empty String")
	}
}

func TestSavingsAtExactPoint(t *testing.T) {
	// Hand-built sweep with known values: P halves, t doubles at half
	// frequency -> energy unchanged.
	mk := func(f, p, tm, e float64) perf.Point {
		return perf.Point{FreqGHz: f,
			Power:   stats.Summary{Mean: p, N: 1},
			Runtime: stats.Summary{Mean: tm, N: 1},
			Energy:  stats.Summary{Mean: e, N: 1}}
	}
	sw := perf.Sweep{Points: []perf.Point{
		mk(1.0, 5, 2, 10), mk(2.0, 10, 1, 10),
	}}
	s, err := SavingsAt(sw, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.PowerPct-50) > 1e-9 || math.Abs(s.RuntimePct-100) > 1e-9 ||
		math.Abs(s.EnergyPct) > 1e-9 {
		t.Fatalf("SavingsAt: %+v", s)
	}
}
