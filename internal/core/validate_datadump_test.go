package core

import (
	"testing"

	"lcpio/internal/obs"
	"lcpio/internal/regress"
)

// TestValidationHonorsWorkers: the Figure 5 study states its worker count
// like every other study, so `--workers 1` runs it single-worker. The codecs
// publish the worker count they ran with as a gauge.
func TestValidationHonorsWorkers(t *testing.T) {
	r := obs.NewRegistry()
	obs.Use(r)
	defer obs.Use(nil)
	cfg := testConfig()
	cfg.Workers = 1
	if _, err := ValidateBroadwellModel(cfg, regress.PowerLawFit{A: 1, B: 1, C: 0}); err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"lcpio_sz_workers", "lcpio_zfp_workers"} {
		if got := r.Gauge(g).Value(); got != 1 {
			t.Errorf("%s = %v with Config.Workers = 1", g, got)
		}
	}
}

func TestValidationFigure5(t *testing.T) {
	cs, _ := sharedStudies(t)
	rows, err := cs.Fit(TableIV)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := FindRow(rows, "Broadwell")
	if err != nil {
		t.Fatal(err)
	}
	v, err := ValidateBroadwellModel(testConfig(), bw.Fit)
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports SSE=0.1463, RMSE=0.0256 on held-out data: the
	// model generalizes with small error. Ours must stay in that regime.
	if v.GF.RMSE > 0.08 {
		t.Errorf("validation RMSE %.4f too large — model does not generalize", v.GF.RMSE)
	}
	if len(v.Measured.Y) == 0 || len(v.Predicted.Y) != len(v.Measured.Y) {
		t.Fatalf("validation series malformed: %d vs %d",
			len(v.Measured.Y), len(v.Predicted.Y))
	}
	// Prediction and measurement agree pointwise within a loose band.
	for i := range v.Measured.Y {
		d := v.Measured.Y[i] - v.Predicted.Y[i]
		if d < -0.12 || d > 0.12 {
			t.Errorf("validation diverges at %.2f GHz: measured %.3f predicted %.3f",
				v.Measured.Freq[i], v.Measured.Y[i], v.Predicted.Y[i])
		}
	}
}

func TestDataDumpFigure6(t *testing.T) {
	results, err := RunDataDump(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("Figure 6 has %d bar groups, want 4", len(results))
	}
	var prevCompressed int64
	for i, r := range results {
		// Tuning must always reduce total energy (the paper: "our solution
		// always reduces the amount of energy consumed").
		if r.TunedTotalJ() >= r.BaseTotalJ() {
			t.Errorf("eb=%g: tuned %.0f J >= base %.0f J", r.EB, r.TunedTotalJ(), r.BaseTotalJ())
		}
		// Finer bounds give lower ratios, hence more compressed bytes and
		// larger transit energy.
		if i > 0 && r.CompressedBytes < prevCompressed {
			t.Errorf("eb=%g: compressed bytes %d below coarser bound's %d",
				r.EB, r.CompressedBytes, prevCompressed)
		}
		prevCompressed = r.CompressedBytes
		// Runtime penalty exists but is bounded.
		slow := r.TunedSeconds/r.BaseSeconds - 1
		if slow < 0 || slow > 0.20 {
			t.Errorf("eb=%g: runtime increase %.1f%% outside [0,20]%%", r.EB, slow*100)
		}
		if r.String() == "" {
			t.Error("empty String")
		}
	}
	savedJ, savedPct, err := AverageDumpSavings(results)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 6.5 kJ and 13% on average. Our simulated substrate should
	// land within a factor-of-few band on kJ and a loose band on percent.
	if savedJ < 1000 || savedJ > 40000 {
		t.Errorf("average saving %.0f J outside [1,40] kJ band", savedJ)
	}
	if savedPct < 4 || savedPct > 25 {
		t.Errorf("average saving %.1f%% outside [4,25]%% band", savedPct)
	}
	if _, _, err := AverageDumpSavings(nil); err == nil {
		t.Error("empty results accepted")
	}
}

func TestDataDumpEnergyMagnitude(t *testing.T) {
	// Sanity: compressing+writing 512 GB at ~14 W and a few kiloseconds
	// must land in the tens-of-kJ range, like the paper's Figure 6 axis.
	results, err := RunDataDump(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.BaseTotalJ() < 5e3 || r.BaseTotalJ() > 5e5 {
			t.Errorf("eb=%g: base energy %.0f J implausible for 512 GB", r.EB, r.BaseTotalJ())
		}
	}
}

func TestHeadlinesEndToEnd(t *testing.T) {
	cs, ts := sharedStudies(t)
	h, err := ComputeHeadlinesFrom(testConfig(), cs, ts)
	if err != nil {
		t.Fatal(err)
	}
	if h.AvgPowerSavingsPct <= 0 || h.AvgEnergySavingsPct <= 0 {
		t.Errorf("headlines must show savings: %+v", h)
	}
	if h.AvgRuntimeIncreasePct <= 0 || h.AvgRuntimeIncreasePct > 15 {
		t.Errorf("average runtime increase %.1f%% implausible", h.AvgRuntimeIncreasePct)
	}
	if h.DumpSavedKJ <= 0 {
		t.Errorf("dump savings %.1f kJ", h.DumpSavedKJ)
	}
	if h.String() == "" {
		t.Fatal("empty String")
	}
}

func TestDataLoadReadback(t *testing.T) {
	results, err := RunDataLoad(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("load results: %d", len(results))
	}
	for _, r := range results {
		if r.TunedTotalJ() >= r.BaseTotalJ() {
			t.Errorf("eb=%g: read-path tuning did not save energy", r.EB)
		}
		if r.SavedPct() <= 0 || r.SavedPct() > 25 {
			t.Errorf("eb=%g: load savings %.1f%% implausible", r.EB, r.SavedPct())
		}
		// Decompression is cheaper than compression: load base energy must
		// be below the dump's compression energy for the same volume.
		if r.BaseDecompressJ <= 0 || r.BaseReadJ <= 0 {
			t.Errorf("eb=%g: degenerate load result %+v", r.EB, r)
		}
	}
}

func TestLoadCheaperThanDump(t *testing.T) {
	dump, err := RunDataDump(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	load, err := RunDataLoad(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range dump {
		if load[i].BaseDecompressJ >= dump[i].BaseCompressJ {
			t.Errorf("eb=%g: decompression energy %.0f not below compression %.0f",
				dump[i].EB, load[i].BaseDecompressJ, dump[i].BaseCompressJ)
		}
	}
}
