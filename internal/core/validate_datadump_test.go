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
