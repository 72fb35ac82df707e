package ckpt

import (
	"math"
	"testing"

	"lcpio/internal/obs"
	"lcpio/internal/phases"
)

// TestCampaignEnergyReconcilesWithTrace: a write and its campaign report,
// run under one recording registry with no compute phase, put exactly the
// report's joules in the trace. Every joule in a trace is a leg phases
// priced; the write's own codec, nfs and ec spans carry none.
func TestCampaignEnergyReconcilesWithTrace(t *testing.T) {
	for _, codec := range []string{"sz", "zfp"} {
		full := deltaSet("full", 3, 48, 64)
		full.Codec = codec
		baseMed := NewMemMedium()
		mustWrite(t, baseMed, full, WriteOptions{Workers: 2})
		base := mustOpenBase(t, baseMed, nil, deltaParams)
		next := churn(full, "next", 0.2)
		for _, k := range []struct {
			name string
			set  Set
			opts WriteOptions
		}{
			{"full", full, WriteOptions{Workers: 2}},
			{"parity", full, WriteOptions{Workers: 2, ParityRanks: 2}},
			{"delta", next, WriteOptions{Workers: 2, Base: base}},
		} {
			name := codec + "/" + k.name
			r := obs.NewRegistry()
			prev := obs.Use(r)
			root := obs.Start("campaign")
			res, err := Write(NewMemMedium(), k.set, k.opts)
			var cmp phases.Comparison
			if err == nil {
				cmp, err = res.EnergyReport(CampaignOptions{})
			}
			root.End()
			obs.Use(prev)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}

			want := cmp.Base.Joules + cmp.Tuned.Joules // Compare executes both plans
			if want <= 0 {
				t.Fatalf("%s: campaign joules = %v, want > 0", name, want)
			}
			snap := r.Snapshot()
			if len(snap.Spans) != 1 {
				t.Fatalf("%s: want one root span, got %d", name, len(snap.Spans))
			}
			if got := snap.RootJoules(); math.Abs(got-want) > 1e-9*want {
				t.Fatalf("%s: trace root joules %v, EnergyReport base + tuned %v", name, got, want)
			}
		}
	}
}

// TestWritePipelineOccupancy checks the reorder-buffer writer's stall
// accounting: the ckpt.write pipeline must cover the compressor lanes plus
// the writer and dispatcher, count every chunk through compress and drain,
// and run the flush stage for the header/manifest/footer leg.
func TestWritePipelineOccupancy(t *testing.T) {
	r := obs.NewRegistry()
	prev := obs.Use(r)
	t.Cleanup(func() { obs.Use(prev) })

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
	r := obs.NewRegistry()
	prev := obs.Use(r)
	t.Cleanup(func() { obs.Use(prev) })

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
