package core

import (
	"math"
	"testing"

	"lcpio/internal/perf"
	"lcpio/internal/stats"
)

func TestPaperRecommendation(t *testing.T) {
	r := PaperRecommendation()
	if r.CompressionFraction != 0.875 || r.WritingFraction != 0.85 {
		t.Fatalf("Eqn 3: %+v", r)
	}
	if r.String() == "" {
		t.Fatal("empty String")
	}
}

func TestSavingsAtPaperTuning(t *testing.T) {
	cs, ts := sharedStudies(t)
	rec := PaperRecommendation()
	comp, err := cs.Savings(rec.CompressionFraction)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 19.4% power savings, +7.5% runtime; our simulated regime
	// lands in a band around those (see EXPERIMENTS.md).
	if comp.PowerPct < 8 || comp.PowerPct > 28 {
		t.Errorf("compression power savings %.1f%% outside band", comp.PowerPct)
	}
	if comp.RuntimePct < 3 || comp.RuntimePct > 14 {
		t.Errorf("compression runtime increase %.1f%% outside band", comp.RuntimePct)
	}
	if comp.EnergyPct <= 0 {
		t.Errorf("compression tuning must save energy, got %.1f%%", comp.EnergyPct)
	}

	trans, err := ts.Savings(rec.WritingFraction)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 11.2% power savings, +9.3% runtime.
	if trans.PowerPct < 5 || trans.PowerPct > 25 {
		t.Errorf("transit power savings %.1f%% outside band", trans.PowerPct)
	}
	if trans.RuntimePct < 1 || trans.RuntimePct > 14 {
		t.Errorf("transit runtime increase %.1f%% outside band", trans.RuntimePct)
	}
	if trans.EnergyPct <= 0 {
		t.Errorf("transit tuning must save energy, got %.1f%%", trans.EnergyPct)
	}
}

func TestDeriveRecommendationInterior(t *testing.T) {
	cs, ts := sharedStudies(t)
	rec, err := DeriveRecommendation(cs, ts)
	if err != nil {
		t.Fatal(err)
	}
	// The energy-optimal frequency sits strictly between min and max: the
	// premise of the whole trade-off (Section V-A3).
	for name, f := range map[string]float64{
		"compression": rec.CompressionFraction,
		"writing":     rec.WritingFraction,
	} {
		if f <= 0.45 || f >= 1.0 {
			t.Errorf("%s fraction %.3f not interior", name, f)
		}
	}
}

func TestDerivedNearPaperRule(t *testing.T) {
	cs, ts := sharedStudies(t)
	rec, err := DeriveRecommendation(cs, ts)
	if err != nil {
		t.Fatal(err)
	}
	paper := PaperRecommendation()
	if math.Abs(rec.CompressionFraction-paper.CompressionFraction) > 0.2 {
		t.Errorf("derived compression fraction %.3f far from paper's %.3f",
			rec.CompressionFraction, paper.CompressionFraction)
	}
	if math.Abs(rec.WritingFraction-paper.WritingFraction) > 0.2 {
		t.Errorf("derived writing fraction %.3f far from paper's %.3f",
			rec.WritingFraction, paper.WritingFraction)
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
}

func TestSavingsString(t *testing.T) {
	s := Savings{Fraction: 0.875, PowerPct: 19.4, RuntimePct: 7.5, EnergyPct: 13.4}
	if s.String() == "" {
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
