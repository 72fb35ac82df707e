package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"lcpio/internal/dedup"
)

// f32le serializes float32s as little-endian bytes — the byte domain base
// references are addressed and digested in, which the write and read paths
// no longer materialise.
func f32le(data []float32) []byte {
	b := make([]byte, len(data)*4)
	for i, v := range data {
		binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(v))
	}
	return b
}

// deltaParams is a small chunking geometry so unit-scale fields split into
// many chunks.
var deltaParams = dedup.Params{MinSize: 256, AvgSize: 1024, MaxSize: 4096}

// deltaSet builds a deterministic set with fields big enough to chunk.
// The smooth fields carry deterministic per-element noise a few error
// bounds wide — like real simulation state, and unlike a pure sine it
// keeps the codec from compressing the full dump to near nothing, which
// would make delta-vs-full byte ratios meaningless.
func deltaSet(name string, ranks, dim0, dim1 int) Set {
	dims := []int{dim0, dim1}
	elems := dim0 * dim1
	mk := func(rank, field int, bound float64) []float32 {
		d := make([]float32, elems)
		rng := uint64(rank*31+field+1) * 0x9E3779B97F4A7C15
		for i := range d {
			x := float64(i%dims[1]) / float64(dims[1])
			y := float64(i/dims[1]) / float64(dims[0])
			rng = rng*6364136223846793005 + 1442695040888963407
			noise := (float64(rng>>11)/float64(1<<53))*2 - 1
			d[i] = float32(math.Sin(6*x+float64(rank))*math.Cos(4*y+float64(field)) + noise*8*bound)
		}
		return d
	}
	fields := []Field{
		{Name: "pressure", Dims: dims, ErrorBound: 1e-3},
		{Name: "velocity_x", Dims: dims, ErrorBound: 1e-4},
	}
	for fi := range fields {
		for r := 0; r < ranks; r++ {
			fields[fi].Data = append(fields[fi].Data, mk(r, fi, fields[fi].ErrorBound))
		}
	}
	return Set{Name: name, Meta: "unit-test", Codec: "sz", Ranks: ranks, Fields: fields}
}

// churn returns a copy of set (renamed) with a contiguous region of each
// rank's payload perturbed well beyond the error bound. frac is the churned
// fraction of each payload; regions are rank-staggered.
func churn(set Set, name string, frac float64) Set {
	out := set
	out.Name = name
	out.Fields = make([]Field, len(set.Fields))
	for fi, f := range set.Fields {
		nf := f
		nf.Data = make([][]float32, len(f.Data))
		for r, data := range f.Data {
			d := append([]float32(nil), data...)
			n := int(float64(len(d)) * frac)
			start := (r * 37) % (len(d) - n + 1)
			for i := start; i < start+n; i++ {
				d[i] += float32(10 * f.ErrorBound)
			}
			nf.Data[r] = d
		}
		out.Fields[fi] = nf
	}
	return out
}

func mustOpenBase(t *testing.T, med Medium, chain []Medium, p dedup.Params) *Base {
	t.Helper()
	b, err := OpenBase(med, chain, p, RestoreOptions{Workers: 2})
	if err != nil {
		t.Fatalf("OpenBase: %v", err)
	}
	return b
}

// TestDeltaRoundTrip is the acceptance scenario: a two-dump sequence with
// 10% churn must write a small fraction of the full-dump bytes and restore
// through the base chain within every field's error bound.
func TestDeltaRoundTrip(t *testing.T) {
	full := deltaSet("full", 4, 128, 192)
	baseMed := NewMemMedium()
	fullRes := mustWrite(t, baseMed, full, WriteOptions{Workers: 2})

	next := churn(full, "delta-1", 0.10)
	base := mustOpenBase(t, baseMed, nil, deltaParams)
	deltaMed := NewMemMedium()
	deltaRes := mustWrite(t, deltaMed, next, WriteOptions{Workers: 2, Base: base})

	if deltaRes.BaseName != "full" || deltaRes.Manifest.ChainDepth != 1 {
		t.Fatalf("delta provenance: base %q depth %d", deltaRes.BaseName, deltaRes.Manifest.ChainDepth)
	}
	if deltaRes.ChunksRef == 0 || deltaRes.Blobs == 0 {
		t.Fatalf("expected refs and blobs, got refs=%d blobs=%d", deltaRes.ChunksRef, deltaRes.Blobs)
	}
	if ratio := float64(deltaRes.FileBytes) / float64(fullRes.FileBytes); ratio > 0.20 {
		t.Fatalf("delta wrote %.1f%% of full-dump bytes, want <= 20%% (delta %d, full %d)",
			100*ratio, deltaRes.FileBytes, fullRes.FileBytes)
	}
	if dr := deltaRes.DedupRatio(); dr < 0.8 {
		t.Fatalf("dedup ratio %.3f, want >= 0.8 at 10%% churn", dr)
	}

	res, err := Restore(deltaMed, RestoreOptions{Workers: 2, Bases: []Medium{baseMed}})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	checkRestored(t, next, res)
	if res.Base == nil || res.Base.Manifest.SetName != "full" {
		t.Fatal("restored delta does not expose its base")
	}

	// Byte-identical through the chain: a second restore yields exactly the
	// same values.
	res2, err := Restore(deltaMed, RestoreOptions{Workers: 4, Bases: []Medium{baseMed}})
	if err != nil {
		t.Fatalf("second Restore: %v", err)
	}
	for fi := range res.Fields {
		for r := range res.Fields[fi].Data {
			if !bytes.Equal(f32le(res.Fields[fi].Data[r]), f32le(res2.Fields[fi].Data[r])) {
				t.Fatalf("restores disagree at field %d rank %d", fi, r)
			}
		}
	}
}

// TestDeltaDeterministicAcrossWorkers: the emitted bytes and dedup ratio
// must not depend on worker count (satellite requirement).
func TestDeltaDeterministicAcrossWorkers(t *testing.T) {
	full := deltaSet("full", 3, 48, 64)
	baseMed := NewMemMedium()
	mustWrite(t, baseMed, full, WriteOptions{Workers: 2})
	next := churn(full, "delta-1", 0.15)

	var golden []byte
	var goldenRatio float64
	for _, workers := range []int{1, 2, 4, 8} {
		base := mustOpenBase(t, baseMed, nil, deltaParams)
		med := NewMemMedium()
		res := mustWrite(t, med, next, WriteOptions{Workers: workers, QueueDepth: workers + 3, Base: base})
		if golden == nil {
			golden = append([]byte(nil), med.Bytes()...)
			goldenRatio = res.DedupRatio()
			continue
		}
		if !bytes.Equal(golden, med.Bytes()) {
			t.Fatalf("delta bytes differ between Workers=1 and Workers=%d", workers)
		}
		if res.DedupRatio() != goldenRatio {
			t.Fatalf("dedup ratio differs at Workers=%d: %v vs %v", workers, res.DedupRatio(), goldenRatio)
		}
	}
}

// TestDeltaZeroChurn: an unchanged dump dedups completely — no blobs, all
// references.
func TestDeltaZeroChurn(t *testing.T) {
	full := deltaSet("full", 2, 32, 48)
	baseMed := NewMemMedium()
	mustWrite(t, baseMed, full, WriteOptions{Workers: 2})
	same := full
	same.Name = "delta-same"
	base := mustOpenBase(t, baseMed, nil, deltaParams)
	med := NewMemMedium()
	res := mustWrite(t, med, same, WriteOptions{Workers: 2, Base: base})
	if res.Blobs != 0 || res.ChunksLocal != 0 {
		t.Fatalf("zero churn stored %d blobs (%d local chunks)", res.Blobs, res.ChunksLocal)
	}
	if res.DedupRatio() != 1 {
		t.Fatalf("dedup ratio %v, want 1", res.DedupRatio())
	}
	restored, err := Restore(med, RestoreOptions{Workers: 2, Bases: []Medium{baseMed}})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	checkRestored(t, same, restored)
}

// TestDeltaChain: two deltas stacked on a full set restore through the
// whole chain, immediate base first.
func TestDeltaChain(t *testing.T) {
	full := deltaSet("gen-0", 3, 48, 64)
	medA := NewMemMedium()
	mustWrite(t, medA, full, WriteOptions{Workers: 2})

	gen1 := churn(full, "gen-1", 0.1)
	baseA := mustOpenBase(t, medA, nil, deltaParams)
	medB := NewMemMedium()
	mustWrite(t, medB, gen1, WriteOptions{Workers: 2, Base: baseA})

	gen2 := churn(gen1, "gen-2", 0.1)
	baseB := mustOpenBase(t, medB, []Medium{medA}, deltaParams)
	medC := NewMemMedium()
	res := mustWrite(t, medC, gen2, WriteOptions{Workers: 2, Base: baseB})
	if res.Manifest.ChainDepth != 2 {
		t.Fatalf("chain depth %d, want 2", res.Manifest.ChainDepth)
	}

	restored, err := Restore(medC, RestoreOptions{Workers: 2, Bases: []Medium{medB, medA}})
	if err != nil {
		t.Fatalf("Restore through chain: %v", err)
	}
	checkRestored(t, gen2, restored)
}

// TestDeltaErrBase: a missing, swapped, or corrupt base surfaces ErrBase,
// not generic corruption (satellite fix).
func TestDeltaErrBase(t *testing.T) {
	full := deltaSet("full", 2, 32, 48)
	baseMed := NewMemMedium()
	mustWrite(t, baseMed, full, WriteOptions{Workers: 2})
	next := churn(full, "delta-1", 0.1)
	base := mustOpenBase(t, baseMed, nil, deltaParams)
	med := NewMemMedium()
	mustWrite(t, med, next, WriteOptions{Workers: 2, Base: base})

	// Missing chain.
	if _, err := Restore(med, RestoreOptions{}); !errors.Is(err, ErrBase) {
		t.Fatalf("restore without base: err = %v, want ErrBase", err)
	}
	// Swapped base: same geometry, different content/manifest → pin check.
	impostorMed := NewMemMedium()
	impostor := deltaSet("full", 2, 32, 48)
	impostor.Meta = "impostor"
	mustWrite(t, impostorMed, impostor, WriteOptions{Workers: 2})
	if _, err := Restore(med, RestoreOptions{Bases: []Medium{impostorMed}}); !errors.Is(err, ErrBase) {
		t.Fatalf("restore with swapped base: err = %v, want ErrBase", err)
	}
	// Corrupt base medium: its manifest no longer decodes.
	corrupt := NewMemMedium()
	if _, err := corrupt.WriteAt(baseMed.Bytes(), 0); err != nil {
		t.Fatal(err)
	}
	corrupt.Corrupt(int64(len(baseMed.Bytes()) - 10))
	if _, err := Restore(med, RestoreOptions{Bases: []Medium{corrupt}}); !errors.Is(err, ErrBase) {
		t.Fatalf("restore with corrupt base: err = %v, want ErrBase", err)
	}
	// ErrBase is not ErrCorrupt: the delta set itself is fine.
	if _, err := Restore(med, RestoreOptions{}); errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing base misreported as ErrCorrupt: %v", err)
	}

	// Verify distinguishes too: without the chain, BaseErr names the gap.
	rep, err := VerifySet(med, VerifyOptions{})
	if err != nil {
		t.Fatalf("VerifySet: %v", err)
	}
	if !errors.Is(rep.BaseErr, ErrBase) {
		t.Fatalf("VerifySet without chain: BaseErr = %v, want ErrBase", rep.BaseErr)
	}
	if rep.Failed != nil {
		t.Fatalf("local blobs should verify clean, got %v", rep.Failed)
	}
	rep, err = VerifySet(med, VerifyOptions{Deep: true, Bases: []Medium{baseMed}})
	if err != nil {
		t.Fatalf("VerifySet with chain: %v", err)
	}
	if rep.BaseErr != nil || rep.RefsOK != rep.RefChunks || rep.RefChunks == 0 {
		t.Fatalf("VerifySet with chain: BaseErr=%v refs %d/%d", rep.BaseErr, rep.RefsOK, rep.RefChunks)
	}
}

// TestDeltaIntraSetSharing: identical changed content across replicated
// ranks is stored once and shared via refcounts. Ranks must hold identical
// payloads for runs to coincide: chunk boundaries are content-defined, so
// rank-specific surroundings would desynchronise the cuts.
func TestDeltaIntraSetSharing(t *testing.T) {
	full := deltaSet("full", 3, 48, 64)
	for fi := range full.Fields {
		for r := 1; r < full.Ranks; r++ {
			full.Fields[fi].Data[r] = append([]float32(nil), full.Fields[fi].Data[0]...)
		}
	}
	baseMed := NewMemMedium()
	mustWrite(t, baseMed, full, WriteOptions{Workers: 2})

	next := full
	next.Name = "delta-shared"
	next.Fields = make([]Field, len(full.Fields))
	for fi, f := range full.Fields {
		nf := f
		nf.Data = make([][]float32, len(f.Data))
		// Every rank gets the SAME changed region content at the same
		// aligned offset, far beyond the bound.
		for r, data := range f.Data {
			d := append([]float32(nil), data...)
			for i := 256; i < 1280; i++ {
				d[i] = float32(float64(i%97) * 1e-2)
			}
			nf.Data[r] = d
		}
		next.Fields[fi] = nf
	}
	base := mustOpenBase(t, baseMed, nil, deltaParams)
	med := NewMemMedium()
	res := mustWrite(t, med, next, WriteOptions{Workers: 2, Base: base})
	if res.ChunksShared == 0 {
		t.Fatalf("expected intra-set sharing, got shared=%d local=%d", res.ChunksShared, res.ChunksLocal)
	}
	shared := 0
	for _, b := range res.Manifest.Blobs {
		if b.Refs > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no blob carries a refcount > 1")
	}
	restored, err := Restore(med, RestoreOptions{Workers: 2, Bases: []Medium{baseMed}})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	checkRestored(t, next, restored)
}

// TestDeltaEnergy: the delta-checkpoint campaign prices hashing against the
// avoided compress+write energy — at 10% churn the delta must come out
// ahead of a full rewrite at the Eqn 3 clocks, and the break-even churn
// must sit above the measured churn but below certainty.
func TestDeltaEnergy(t *testing.T) {
	full := deltaSet("full", 4, 128, 192)
	baseMed := NewMemMedium()
	fullRes := mustWrite(t, baseMed, full, WriteOptions{Workers: 2})
	next := churn(full, "delta-1", 0.10)
	base := mustOpenBase(t, baseMed, nil, deltaParams)
	med := NewMemMedium()
	res := mustWrite(t, med, next, WriteOptions{Workers: 2, Base: base})

	de, err := res.DeltaEnergy(fullRes, CampaignOptions{})
	if err != nil {
		t.Fatalf("DeltaEnergy: %v", err)
	}
	if de.ChurnRate <= 0 || de.ChurnRate > 0.3 {
		t.Fatalf("churn rate %.3f, want ~0.1", de.ChurnRate)
	}
	if de.HashJoules <= 0 {
		t.Fatal("dedup pass costed zero energy")
	}
	if de.NetSavedJoules <= 0 || de.DeltaJoules >= de.FullJoules {
		t.Fatalf("delta checkpoint did not save energy: delta %.3f J vs full %.3f J",
			de.DeltaJoules, de.FullJoules)
	}
	if de.BreakEvenChurn <= de.ChurnRate || de.BreakEvenChurn > 1 {
		t.Fatalf("break-even churn %.3f, want in (%.3f, 1]", de.BreakEvenChurn, de.ChurnRate)
	}

	// The campaign plan gets the delta shape and still benefits from Eqn 3.
	pl, err := res.CampaignPlan(CampaignOptions{Iterations: 3, ComputeSeconds: 5})
	if err != nil {
		t.Fatalf("CampaignPlan: %v", err)
	}
	found := false
	for _, ph := range pl.Phases {
		if ph.Name == "checkpoint-dedup" {
			found = true
		}
	}
	if !found {
		t.Fatal("delta campaign plan lacks the dedup phase")
	}
	cmp, err := res.EnergyReport(CampaignOptions{Iterations: 3, ComputeSeconds: 5})
	if err != nil {
		t.Fatalf("EnergyReport: %v", err)
	}
	if cmp.EnergySavedPct() <= 0 {
		t.Fatalf("tuned delta campaign saved %.3f%%, want > 0", cmp.EnergySavedPct())
	}

	// Guard rails: wrong-shaped inputs are rejected.
	if _, err := fullRes.DeltaEnergy(fullRes, CampaignOptions{}); err == nil {
		t.Fatal("DeltaEnergy on a full result should fail")
	}
	if _, err := res.DeltaEnergy(res, CampaignOptions{}); err == nil {
		t.Fatal("DeltaEnergy with a delta baseline should fail")
	}
	if _, err := res.CampaignPlan(CampaignOptions{WithRestore: true}); err == nil {
		t.Fatal("WithRestore campaign on a delta set should fail")
	}
}

// TestDeltaParityReconstruction: a corrupted blob on a parity delta set is
// rebuilt from the local-region stripe.
func TestDeltaParityReconstruction(t *testing.T) {
	full := deltaSet("full", 4, 48, 64)
	baseMed := NewMemMedium()
	mustWrite(t, baseMed, full, WriteOptions{Workers: 2})
	next := churn(full, "delta-p", 0.2)
	base := mustOpenBase(t, baseMed, nil, deltaParams)
	med := NewMemMedium()
	res := mustWrite(t, med, next, WriteOptions{Workers: 2, Base: base, ParityRanks: 1})
	if res.ParityBytes <= 0 {
		t.Fatal("parity delta set has no parity bytes")
	}

	// Persistent corruption inside the first blob's stored bytes: re-reads
	// cannot fix it, so restore must fall back to the parity stripe.
	b := res.Manifest.Blobs[0]
	med.Corrupt(b.Offset + b.Size/2)

	restored, err := Restore(med, RestoreOptions{Workers: 2, Bases: []Medium{baseMed},
		Retry: RetryPolicy{MaxAttempts: 2}})
	if err != nil {
		t.Fatalf("Restore with damaged blob: %v", err)
	}
	if restored.Report.ChunksReconstructed == 0 {
		t.Fatal("expected parity reconstruction of the damaged blob")
	}
	checkRestored(t, next, restored)
}
