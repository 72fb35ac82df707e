package core

import (
	"testing"
)

// The conclusion's follow-up question: do the trends hold on a different
// CPU? Run the compression study with Cascade Lake added and check the
// qualitative claims survive.
func TestExtendedChipGeneration(t *testing.T) {
	cfg := testConfig()
	cfg.Chips = []string{"Broadwell", "Skylake", "CascadeLake"}
	cs, err := RunCompressionStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Entries) != 72 { // 3 chips x 2 codecs x 3 datasets x 4 bounds
		t.Fatalf("extended study has %d entries", len(cs.Entries))
	}
	rows, err := cs.Fit(cs.ByChip())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("per-chip rows: %d", len(rows))
	}
	byName := map[string]ModelRow{}
	for _, r := range rows {
		byName[r.Name] = r
		// Every chip's fit must be tight and have a high scaled floor.
		if r.Fit.GF.RMSE > 0.05 {
			t.Errorf("%s: RMSE %.4f too large", r.Name, r.Fit.GF.RMSE)
		}
		if r.Fit.C < 0.5 || r.Fit.C > 0.95 {
			t.Errorf("%s: floor constant %.3f out of regime", r.Name, r.Fit.C)
		}
	}
	// Cascade Lake inherits Skylake-SP power management: the knee (large
	// exponent) persists into the next generation, unlike Broadwell.
	if byName["CascadeLake"].Fit.B < 8 {
		t.Errorf("CascadeLake exponent %.1f should stay knee-like", byName["CascadeLake"].Fit.B)
	}
	if byName["CascadeLake"].Fit.B <= byName["Broadwell"].Fit.B {
		t.Errorf("CascadeLake exponent (%.1f) should exceed Broadwell (%.1f)",
			byName["CascadeLake"].Fit.B, byName["Broadwell"].Fit.B)
	}
}

// The tuning rule derived from the paper pair must still save energy on
// the held-out generation — the practical version of "trends hold".
func TestPaperRuleTransfersToNewChip(t *testing.T) {
	cfg := testConfig()
	cfg.Chips = []string{"CascadeLake"}
	cs, err := RunCompressionStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := RunTransitStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := PaperRecommendation()
	comp, err := cs.Savings(rec.CompressionFraction)
	if err != nil {
		t.Fatal(err)
	}
	if comp.EnergyPct <= 0 {
		t.Errorf("Eqn 3 lost energy on CascadeLake compression: %+v", comp)
	}
	trans, err := ts.Savings(rec.WritingFraction)
	if err != nil {
		t.Fatal(err)
	}
	if trans.EnergyPct <= 0 {
		t.Errorf("Eqn 3 lost energy on CascadeLake writes: %+v", trans)
	}
}

func TestUnknownChipRejected(t *testing.T) {
	cfg := testConfig()
	cfg.Chips = []string{"EPYC"}
	if _, err := RunCompressionStudy(cfg); err == nil {
		t.Fatal("unknown chip accepted")
	}
	if _, err := RunTransitStudy(cfg); err == nil {
		t.Fatal("unknown chip accepted by transit study")
	}
}

// The energy-vs-frequency curve must have an interior minimum strictly
// below 1 — the existence proof behind Eqn 3's trade-off.
func TestEnergyCharacteristicInteriorMinimum(t *testing.T) {
	cs, ts := sharedStudies(t)
	for _, study := range []*Study{cs, ts} {
		series, err := study.Characteristics(ScaledEnergy)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range series {
			fMin, yMin := s.Min()
			if yMin >= 1 {
				t.Errorf("%s: no energy saving anywhere (min %.3f)", s.Label, yMin)
			}
			if fMin == s.Freq[0] {
				t.Errorf("%s: energy minimum at fmin — race-to-idle would win, contradicting the paper", s.Label)
			}
			if fMin == s.Freq[len(s.Freq)-1] {
				t.Errorf("%s: energy minimum at fmax — tuning would be useless", s.Label)
			}
		}
	}
}

func TestEnergyVsCores(t *testing.T) {
	samples, err := EnergyVsCores(testConfig(), "Skylake", "sz", 8<<30, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 8 {
		t.Fatalf("sample count %d", len(samples))
	}
	// Runtime strictly decreases with cores; energy decreases initially
	// (static amortization).
	for i := 1; i < len(samples); i++ {
		if samples[i].Seconds >= samples[i-1].Seconds {
			t.Errorf("cores=%d not faster than %d", samples[i].Cores, samples[i-1].Cores)
		}
	}
	if samples[3].Joules >= samples[0].Joules {
		t.Errorf("4 cores should save energy over 1: %.0f vs %.0f",
			samples[3].Joules, samples[0].Joules)
	}
	if _, err := EnergyVsCores(testConfig(), "EPYC", "sz", 1<<30, 4); err == nil {
		t.Fatal("unknown chip accepted")
	}
	if _, err := EnergyVsCores(testConfig(), "Skylake", "lz4", 1<<30, 4); err == nil {
		t.Fatal("unknown codec accepted")
	}
}
