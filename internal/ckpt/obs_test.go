package ckpt

import (
	"math"
	"testing"

	"lcpio/internal/dvfs"
	"lcpio/internal/machine"
	"lcpio/internal/obs"
)

// TestCampaignEnergyReconcilesWithTrace is the issue's acceptance check: a
// checkpoint campaign run under a recording registry must attribute energy
// to its span tree that matches the phases.EnergyReport totals within 1%.
func TestCampaignEnergyReconcilesWithTrace(t *testing.T) {
	// The write itself runs outside any registry: its nfs/sz spans would be
	// model-priced roots unrelated to the campaign's exact attribution.
	med := NewMemMedium()
	res := mustWrite(t, med, testSet(3), WriteOptions{Workers: 2})

	prev := obs.Active()
	t.Cleanup(func() { obs.Use(prev) })
	r := obs.NewRegistry()
	r.SetEnergyModel(machine.EnergyModel(dvfs.Broadwell()))
	obs.Use(r)

	root := obs.Start("campaign")
	cmp, err := res.EnergyReport(CampaignOptions{Iterations: 5, ComputeSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	obs.Use(prev)

	want := cmp.Base.Joules + cmp.Tuned.Joules // Compare executes both plans
	if want <= 0 {
		t.Fatalf("campaign joules = %v, want > 0", want)
	}
	snap := r.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("want one root span, got %d", len(snap.Spans))
	}
	got := snap.Spans[0].Joules
	if rel := math.Abs(got-want) / want; rel > 0.01 {
		t.Fatalf("trace root joules %v vs EnergyReport total %v: rel err %v > 1%%", got, want, rel)
	}
}

// TestWritePipelineOccupancy checks the reorder-buffer writer's stall
// accounting: the ckpt.write pipeline must cover the compressor lanes plus
// the writer and dispatcher, count every chunk through compress and drain,
// and run the flush stage for the header/manifest/footer leg.
func TestWritePipelineOccupancy(t *testing.T) {
	prev := obs.Active()
	t.Cleanup(func() { obs.Use(prev) })
	r := obs.NewRegistry()
	obs.Use(r)

	const workers = 3
	set := testSet(4)
	med := NewMemMedium()
	mustWrite(t, med, set, WriteOptions{Workers: workers})
	obs.Use(prev)

	snap := r.Snapshot()
	p, ok := snap.Pipelines["ckpt.write"]
	if !ok {
		t.Fatal("ckpt.write pipeline missing from snapshot")
	}
	if p.Workers != workers+2 {
		t.Fatalf("pipeline workers = %d, want %d (compressors + writer + dispatcher)", p.Workers, workers+2)
	}
	n := int64(set.Ranks * len(set.Fields))
	if got := p.Stages["compress"].Items; got != n {
		t.Fatalf("compress items = %d, want %d chunks", got, n)
	}
	if got := p.Stages["drain"].Items; got != n {
		t.Fatalf("drain items = %d, want %d chunks", got, n)
	}
	if got := p.Stages["dispatch"].Items; got != n {
		t.Fatalf("dispatch items = %d, want %d chunks", got, n)
	}
	// Header flush + final manifest/footer flush.
	if got := p.Stages["flush"].Items; got != 2 {
		t.Fatalf("flush items = %d, want 2", got)
	}
	if p.WallSeconds <= 0 || p.Efficiency <= 0 {
		t.Fatalf("wall/efficiency = %v/%v, want > 0", p.WallSeconds, p.Efficiency)
	}
}

// TestDeltaWritePipelineOccupancy is the same check for a delta write: the
// same engine under its own pipeline and stage names.
func TestDeltaWritePipelineOccupancy(t *testing.T) {
	prev := obs.Active()
	t.Cleanup(func() { obs.Use(prev) })
	r := obs.NewRegistry()
	obs.Use(r)

	baseMed := NewMemMedium()
	set := testSet(2)
	mustWrite(t, baseMed, set, WriteOptions{Workers: 2})
	base := mustOpenBase(t, baseMed, nil, deltaParams)
	set2 := testSet(2)
	set2.Name = "ts2"
	deltaMed := NewMemMedium()
	mustWrite(t, deltaMed, set2, WriteOptions{Workers: 2, Base: base})
	obs.Use(prev)

	snap := r.Snapshot()
	p, ok := snap.Pipelines["ckpt.delta_write"]
	if !ok {
		t.Fatal("ckpt.delta_write pipeline missing from snapshot")
	}
	if p.Workers != 2+2 {
		t.Fatalf("pipeline workers = %d, want 4 (classifiers + drain + dispatcher)", p.Workers)
	}
	n := int64(set2.Ranks * len(set2.Fields))
	if got := p.Stages["classify_compress"].Items; got != n {
		t.Fatalf("classify_compress items = %d, want %d streams", got, n)
	}
	if got := p.Stages["drain"].Items; got != n {
		t.Fatalf("drain items = %d, want %d streams", got, n)
	}
}
