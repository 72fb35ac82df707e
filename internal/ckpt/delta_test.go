package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"lcpio/internal/dedup"
	"lcpio/internal/obs"
)

// f32le serializes float32s as little-endian bytes — the byte domain base
// references are addressed and digested in, and the reference the tests hold
// the float-domain write and read paths to.
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

// classificationCase is a base set and a next state built from the base's
// RESTORED values, so exact matches exist, with one rank per row of the
// classification table. Rank 0 is unchanged. Rank 1 is unchanged too, and in
// the base it is a copy of rank 0, so every one of its chunks is also an exact
// match at rank 0 — the index's first-seen location. Rank 2 is unchanged and
// holds a NaN. Rank 3 is the base's rank 3 moved down by the length of its
// first chunk behind a prefix of new values; shifts holds that length in
// bytes, per field.
func classificationCase(t *testing.T) (baseMed *MemMedium, next Set, shifts []int) {
	t.Helper()
	const nanAt = 1000
	full := deltaSet("full", 4, 64, 96)
	for fi := range full.Fields {
		d := full.Fields[fi].Data
		d[1] = append([]float32(nil), d[0]...)
		d[2][nanAt] = float32(math.NaN())
	}
	baseMed = NewMemMedium()
	mustWrite(t, baseMed, full, WriteOptions{Workers: 2})
	restored, err := Restore(baseMed, RestoreOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := deltaParams
	p.Align = dedupAlign
	next = Set{Name: "next", Meta: full.Meta, Codec: full.Codec, Ranks: full.Ranks}
	for fi, f := range full.Fields {
		rd := restored.Fields[fi].Data
		if !math.IsNaN(float64(rd[2][nanAt])) {
			t.Fatalf("field %d: the codec did not hand the NaN back", fi)
		}
		shift := dedup.SplitFloat32(rd[3], p)[0]
		shifts = append(shifts, shift)
		moved := make([]float32, len(rd[3]))
		for i := range moved[:shift/4] {
			moved[i] = 7 + float32(i%13)*float32(50*f.ErrorBound)
		}
		copy(moved[shift/4:], rd[3])
		nf := Field{Name: f.Name, Dims: f.Dims, ErrorBound: f.ErrorBound}
		for _, d := range [][]float32{rd[0], rd[1], rd[2], moved} {
			nf.Data = append(nf.Data, append([]float32(nil), d...))
		}
		next.Fields = append(next.Fields, nf)
	}
	return baseMed, next, shifts
}

// classifyInBytes is the classification done the slow way, in the byte
// domain the format is defined in (f32le, dedup.Split, dedup.Sum), one chunk
// at a time with nothing merged: how many chunks of next are within bound of
// the base at their own position, how many of the rest are byte-identical to
// some chunk of the base, and how many are neither.
func classifyInBytes(next Set, base *Restored, p dedup.Params) (bound, exact, local int) {
	p.Align = dedupAlign
	chunks := func(raw []byte, visit func(lo, hi int)) {
		prev := 0
		for _, cut := range dedup.Split(raw, p) {
			visit(prev, cut)
			prev = cut
		}
	}
	known := map[dedup.Digest]bool{}
	for _, f := range base.Fields {
		for _, d := range f.Data {
			raw := f32le(d)
			chunks(raw, func(lo, hi int) { known[dedup.Sum(raw[lo:hi])] = true })
		}
	}
	for fi, f := range next.Fields {
		for r, cur := range f.Data {
			raw, old := f32le(cur), base.Fields[fi].Data[r]
			chunks(raw, func(lo, hi int) {
				within := true
				for i := lo / 4; i < hi/4; i++ {
					if d := float64(cur[i]) - float64(old[i]); !(d <= f.ErrorBound && d >= -f.ErrorBound) {
						within = false
					}
				}
				switch {
				case within:
					bound++
				case known[dedup.Sum(raw[lo:hi])]:
					exact++
				default:
					local++
				}
			})
		}
	}
	return bound, exact, local
}

// TestDeltaClassification pins which test claims a chunk: (a) within bound
// at its own position and an exact match elsewhere → the same-position
// reference; (b) identical to the base but holding a NaN, which no bound
// admits → an exact reference; (c) content moved by one chunk → an exact
// reference at the moved offset; (d) changed → stored. The counted classes
// must be the byte-domain classification's, the file must not depend on the
// worker count, and the set must restore and deep-verify.
func TestDeltaClassification(t *testing.T) {
	baseMed, next, shifts := classificationCase(t)
	base := mustOpenBase(t, baseMed, nil, deltaParams)

	prev := obs.Active()
	t.Cleanup(func() { obs.Use(prev) })
	reg := obs.NewRegistry()
	obs.Use(reg)
	med := NewMemMedium()
	res := mustWrite(t, med, next, WriteOptions{Workers: 1, Base: base})
	obs.Use(prev)
	for _, workers := range []int{2, 4} {
		again := NewMemMedium()
		mustWrite(t, again, next, WriteOptions{Workers: workers, Base: base})
		if !bytes.Equal(med.Bytes(), again.Bytes()) {
			t.Fatalf("delta bytes differ between Workers=1 and Workers=%d", workers)
		}
	}

	m := res.Manifest
	nFields := len(m.Fields)
	for s, entries := range m.Entries {
		rank, fi := s/nFields, s%nFields
		shift := shifts[fi]
		pos, refBytes := 0, 0
		for i, e := range entries {
			wantOff := int64(pos)
			if rank == 3 {
				wantOff -= int64(shift) // (c)
			}
			switch {
			case e.Local() && rank != 3:
				t.Fatalf("rank %d field %d: unchanged content stored at %d", rank, fi, pos)
			case e.Local():
				if i == 0 && e.RawLen < shift { // (d)
					t.Fatalf("rank 3 field %d: first stored run covers %d of the %d new bytes", fi, e.RawLen, shift)
				}
			case e.BaseRank != rank || e.BaseField != fi || e.BaseRawOff != wantOff: // (a), (b), (c)
				t.Fatalf("rank %d field %d: %d bytes at %d reference (rank %d, field %d, off %d), want (%d, %d, %d)",
					rank, fi, e.RawLen, pos, e.BaseRank, e.BaseField, e.BaseRawOff, rank, fi, wantOff)
			default:
				refBytes += e.RawLen
			}
			pos += e.RawLen
		}
		if rank == 3 && (!entries[0].Local() || refBytes < pos/2) {
			t.Fatalf("rank 3 field %d: %d of %d bytes found at the moved offset, first entry local = %v",
				fi, refBytes, pos, entries[0].Local())
		}
	}

	restoredBase, err := Restore(baseMed, RestoreOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	bound, exact, local := classifyInBytes(next, restoredBase, deltaParams)
	if bound == 0 || exact < 2*nFields || local == 0 {
		t.Fatalf("the case does not reach every class: bound %d, exact %d, local %d", bound, exact, local)
	}
	count := func(class string) int {
		return int(reg.Snapshot().Counters["lcpio_ckpt_delta_chunks_"+class+"_total"])
	}
	if count("bound") != bound || count("exact") != exact || count("local")+count("shared") != local {
		t.Fatalf("counted bound %d, exact %d, local %d + shared %d; the byte-domain classification has %d, %d, %d",
			count("bound"), count("exact"), count("local"), count("shared"), bound, exact, local)
	}
	if res.ChunksRef != bound+exact || res.ChunksLocal+res.ChunksShared != local {
		t.Fatalf("WriteResult counts %d referenced, %d + %d stored; want %d and %d",
			res.ChunksRef, res.ChunksLocal, res.ChunksShared, bound+exact, local)
	}

	got, err := Restore(med, RestoreOptions{Workers: 2, Bases: []Medium{baseMed}})
	if err != nil {
		t.Fatal(err)
	}
	checkRestored(t, next, got)
	rep, err := VerifySet(med, VerifyOptions{Deep: true, Workers: 2, Bases: []Medium{baseMed}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) > 0 || rep.BaseErr != nil || rep.RefsOK != rep.RefChunks {
		t.Fatalf("deep verify: %+v", rep)
	}
}

// TestDeltaWriteBudgets holds one delta write of a lossy set with 10 % churn
// to the work the classification order promises: SHA-256 sees each
// referenced base range, each chunk that failed its bound and each stored run
// once — 1.1 × the raw bytes, where digesting every chunk first made it 2.0 —
// and the write allocates for what it stores, with no buffer the size of the
// set (the byte copy of every array was 1.0 × raw on its own).
func TestDeltaWriteBudgets(t *testing.T) {
	full := deltaSet("full", 4, 512, 1024)
	baseMed := NewMemMedium()
	mustWrite(t, baseMed, full, WriteOptions{Workers: 2})
	base := mustOpenBase(t, baseMed, nil, dedup.Params{})
	next := churn(full, "next", 0.10)
	med := NewMemMedium()
	mustWrite(t, med, next, WriteOptions{Workers: 2, Base: base}) // sizes the medium

	prev := obs.Active()
	t.Cleanup(func() { obs.Use(prev) })
	reg := obs.NewRegistry()
	obs.Use(reg)
	const writes = 3
	var raw int64
	alloc := uint64(math.MaxUint64) // TotalAlloc is process-wide: the least of three
	for i := 0; i < writes; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := mustWrite(t, med, next, WriteOptions{Workers: 2, Base: base})
		runtime.ReadMemStats(&after)
		alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		raw = res.RawBytes
		if dr := res.DedupRatio(); dr < 0.8 || dr > 0.95 {
			t.Fatalf("dedup ratio %.3f: not a 10 %% churn write", dr)
		}
	}
	obs.Use(prev)
	digested := reg.Snapshot().Counters["lcpio_ckpt_delta_digest_bytes_total"] / writes
	t.Logf("raw %d bytes: digested %.3f x raw, allocated %.3f x raw", raw, digested/float64(raw), float64(alloc)/float64(raw))
	if digested > 1.15*float64(raw) {
		t.Fatalf("digested %.0f bytes for %d raw: %.2f x, want <= 1.15 x", digested, raw, digested/float64(raw))
	}
	// The constant is the two lanes' codec state, which every Write makes
	// anew: 2.1 MB measured, at any set size. Under -race sync.Pool drops a
	// quarter of what lossless returns to it, and the same write reads up to
	// 0.47 x raw here (6.0 MB without, 7.8 MB with): 4 MiB leaves room for
	// that and still none for a copy of the set.
	if budget := uint64(0.30*float64(raw)) + 4<<20; alloc > budget {
		t.Fatalf("one delta write of %d raw bytes allocated %d, want <= %d (0.30 x raw + 4 MiB)", raw, alloc, budget)
	}
}
