package lcpio

import (
	"math"
	"testing"

	"lcpio/internal/core"
)

// TestIntegrationFullReproduction runs the complete paper reproduction at
// near-paper fidelity (full grids, 5 repetitions, MB-scale codec fields)
// and checks every cross-cutting claim in one place. Skipped under -short.
func TestIntegrationFullReproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction")
	}
	cfg := Config{Seed: 99, Repetitions: 5, RatioElems: 1 << 16}
	cs, err := RunCompressionStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := RunTransitStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Table IV: per-chip fits beat pooled, Skylake knee > Broadwell.
	rows, err := cs.Fit(TableIV)
	if err != nil {
		t.Fatal(err)
	}
	total, _ := core.FindRow(rows, "Total")
	bw, _ := core.FindRow(rows, "Broadwell")
	sk, _ := core.FindRow(rows, "Skylake")
	if bw.Fit.GF.RMSE >= total.Fit.GF.RMSE || sk.Fit.GF.RMSE >= total.Fit.GF.RMSE {
		t.Error("per-chip fits must beat pooled fit")
	}
	if sk.Fit.B <= 2*bw.Fit.B {
		t.Errorf("Skylake exponent %.1f should dwarf Broadwell %.1f", sk.Fit.B, bw.Fit.B)
	}

	// Table V mirrors the structure.
	vrows, err := ts.Fit(TableV)
	if err != nil {
		t.Fatal(err)
	}
	vtotal, _ := core.FindRow(vrows, "Total")
	vbw, _ := core.FindRow(vrows, "Broadwell")
	if vbw.Fit.GF.RMSE >= vtotal.Fit.GF.RMSE {
		t.Error("transit per-chip fit must beat pooled fit")
	}

	// Headlines: all savings positive, derived rule near Eqn 3.
	h, err := core.ComputeHeadlinesFrom(cfg, cs, ts)
	if err != nil {
		t.Fatal(err)
	}
	if h.Compression.PowerPct <= 0 || h.Transit.PowerPct <= 0 ||
		h.AvgEnergySavingsPct <= 0 || h.DumpSavedKJ <= 0 {
		t.Errorf("headlines degenerate: %+v", h)
	}
	if math.Abs(h.Derived.CompressionFraction-0.875) > 0.15 {
		t.Errorf("derived compression fraction %.3f far from Eqn 3", h.Derived.CompressionFraction)
	}
	if math.Abs(h.Derived.WritingFraction-0.85) > 0.15 {
		t.Errorf("derived writing fraction %.3f far from Eqn 3", h.Derived.WritingFraction)
	}

	// Figure 5: the Broadwell model generalizes to held-out data.
	v, err := core.ValidateBroadwellModel(cfg, bw.Fit)
	if err != nil {
		t.Fatal(err)
	}
	if v.GF.RMSE > 0.05 {
		t.Errorf("validation RMSE %.4f", v.GF.RMSE)
	}

	// Different seeds agree on the qualitative result.
	cfg2 := cfg
	cfg2.Seed = 12345
	cs2, err := RunCompressionStudy(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := cs2.Fit(TableIV)
	if err != nil {
		t.Fatal(err)
	}
	sk2, _ := core.FindRow(rows2, "Skylake")
	if math.Abs(sk2.Fit.B-sk.Fit.B) > 0.25*sk.Fit.B {
		t.Errorf("Skylake exponent unstable across seeds: %.1f vs %.1f", sk2.Fit.B, sk.Fit.B)
	}
}
