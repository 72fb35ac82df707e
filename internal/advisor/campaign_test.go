package advisor

import (
	"math"
	"testing"

	"lcpio/internal/dvfs"
	"lcpio/internal/fpdata"
	"lcpio/internal/machine"
	"lcpio/internal/obs"
)

// TestAdvisorCampaignReconciles pins the ISSUE contract: executing the
// campaign an advisor decision materializes attributes its joules to obs
// spans that reconcile with the planner totals within 1%, and the campaign's
// per-iteration energy tracks the decision's compress+write model.
func TestAdvisorCampaignReconciles(t *testing.T) {
	spec := fpdata.IsabelFields()[5] // "W"
	f := holdoutField(t, spec)
	chip := dvfs.Broadwell() // the Config{} default
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := c.Sketch(f.Data, f.Dims)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decide(sk, Request{MinPSNR: 40})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 3
	pl, err := c.Campaign(dec, iters, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Phases) != 3 {
		t.Fatalf("campaign has %d phases, want 3", len(pl.Phases))
	}
	if pl.Phases[1].FreqGHz != dec.CompressGHz || pl.Phases[2].FreqGHz != dec.WriteGHz {
		t.Fatalf("campaign frequencies %.2f/%.2f do not match decision %.2f/%.2f",
			pl.Phases[1].FreqGHz, pl.Phases[2].FreqGHz, dec.CompressGHz, dec.WriteGHz)
	}

	prev := obs.Active()
	t.Cleanup(func() { obs.Use(prev) })
	r := obs.NewRegistry()
	obs.Use(r)
	tot, err := pl.Execute(machine.NewNode(chip, 1))
	if err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "phases.execute" {
		t.Fatalf("want one phases.execute root, got %d spans", len(snap.Spans))
	}
	if rel := math.Abs(snap.Spans[0].Joules-tot.Joules) / tot.Joules; rel > 0.01 {
		t.Fatalf("span joules %.6g vs totals %.6g: rel err %.4f > 1%%", snap.Spans[0].Joules, tot.Joules, rel)
	}

	// The I/O share of one iteration must match the decision's modeled
	// compress+write legs (the compute phase is extra by construction).
	computeJ := chip.BusyPower(chip.BaseGHz) * 0.5
	perIterIO := tot.Joules/iters - computeJ
	model := dec.CompressJoules + dec.WriteJoules
	if rel := math.Abs(perIterIO-model) / model; rel > 0.01 {
		t.Fatalf("campaign I/O joules %.6g vs decision model %.6g: rel err %.4f > 1%%", perIterIO, model, rel)
	}
}
