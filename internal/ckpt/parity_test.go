package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"lcpio/internal/retry"
)

// restoreFloats flattens a Restored into field-major [][]float32 for exact
// comparison between a clean restore and a reconstructed one.
func restoreFloats(r *Restored) [][][]float32 {
	out := make([][][]float32, len(r.Fields))
	for fi := range r.Fields {
		out[fi] = r.Fields[fi].Data
	}
	return out
}

func TestParityWriteByteIdenticalAcrossWorkerCounts(t *testing.T) {
	set := testSet(4)
	var ref []byte
	var refParity []ChunkInfo
	for _, workers := range []int{1, 2, 4, 8} {
		med := NewMemMedium()
		res := mustWrite(t, med, set, WriteOptions{Workers: workers, ParityRanks: 2})
		if res.ParityRanks != 2 || res.ParityBytes <= 0 {
			t.Fatalf("workers=%d: parity result %+v", workers, res)
		}
		if got := len(res.Manifest.ParityChunks); got != 2*len(set.Fields) {
			t.Fatalf("workers=%d: %d parity chunks, want %d", workers, got, 2*len(set.Fields))
		}
		if ref == nil {
			ref = append([]byte(nil), med.Bytes()...)
			refParity = append([]ChunkInfo(nil), res.Manifest.ParityChunks...)
			continue
		}
		if !bytes.Equal(ref, med.Bytes()) {
			t.Fatalf("workers=%d: file bytes differ from workers=1", workers)
		}
		for i, c := range res.Manifest.ParityChunks {
			if c != refParity[i] {
				t.Fatalf("workers=%d: parity chunk %d differs: %+v vs %+v",
					workers, i, c, refParity[i])
			}
		}
	}
}

func TestParityOverheadAccounting(t *testing.T) {
	set := testSet(4)
	med := NewMemMedium()
	res := mustWrite(t, med, set, WriteOptions{Workers: 2, ParityRanks: 2})
	if res.ParityOverhead() <= 0 {
		t.Fatalf("ParityOverhead = %g, want > 0", res.ParityOverhead())
	}
	if res.Manifest.ParityBytes() != res.ParityBytes {
		t.Fatalf("manifest parity bytes %d != result %d",
			res.Manifest.ParityBytes(), res.ParityBytes)
	}
	// Parity shards are stripe-length: m shards of the field's max chunk.
	for fi := range set.Fields {
		var maxData int64
		for r := 0; r < set.Ranks; r++ {
			if s := res.Manifest.Chunk(r, fi).Size; s > maxData {
				maxData = s
			}
		}
		for j := 0; j < 2; j++ {
			if got := res.Manifest.ParityChunk(fi, j).Size; got != maxData {
				t.Fatalf("field %d parity %d size %d, want stripe len %d", fi, j, got, maxData)
			}
		}
	}
}

// TestParityReconstructsErasedRanks is the tentpole property test: for a
// range of geometries, erase up to m whole ranks (every field chunk of the
// rank persistently corrupted) and demand a STRICT restore — under wire
// faults on the read mount — that is element-identical to a clean restore,
// with the report attributing the rebuilt chunks to reconstruction.
func TestParityReconstructsErasedRanks(t *testing.T) {
	cases := []struct {
		ranks, parity int
		erase         []int
	}{
		{3, 1, []int{1}},
		{4, 2, []int{0, 3}},
		{5, 2, []int{2}},
		{6, 3, []int{0, 2, 5}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("k%d_m%d_lose%d", tc.ranks, tc.parity, len(tc.erase)), func(t *testing.T) {
			set := testSet(tc.ranks)
			med := NewMemMedium()
			res := mustWrite(t, med, set, WriteOptions{Workers: 2, ParityRanks: tc.parity})

			clean, err := Restore(med, RestoreOptions{Workers: 2})
			if err != nil {
				t.Fatalf("clean restore: %v", err)
			}

			for _, r := range tc.erase {
				for fi := range set.Fields {
					c := res.Manifest.Chunk(r, fi)
					med.Corrupt(c.Offset + c.Size/2)
				}
			}
			// The seeded wire-fault injector is documented single-threaded,
			// so the faulted restore runs one worker; a clean-mount restore
			// below re-checks the same outcome at higher worker counts.
			ropts := RestoreOptions{Workers: 1, Retry: retry.Policy{MaxAttempts: 2}}
			ropts.Mount = faultyNFSMount(17)
			got, err := Restore(med, ropts)
			if err != nil {
				t.Fatalf("strict restore with %d erased ranks: %v", len(tc.erase), err)
			}
			rep := got.Report
			if len(rep.Failed) != 0 || len(rep.MissingRanks) != 0 {
				t.Fatalf("reconstructed restore still reports failures: %+v", rep)
			}
			wantRebuilt := len(tc.erase) * len(set.Fields)
			if rep.ChunksReconstructed != wantRebuilt {
				t.Fatalf("ChunksReconstructed = %d, want %d", rep.ChunksReconstructed, wantRebuilt)
			}
			wantRanks := sortedDedupInts(append([]int(nil), tc.erase...))
			if !reflect.DeepEqual(rep.ReconstructedRanks, wantRanks) {
				t.Fatalf("ReconstructedRanks = %v, want %v", rep.ReconstructedRanks, wantRanks)
			}
			if rep.ParityChunksRead == 0 {
				t.Fatal("reconstruction read no parity chunks")
			}
			// Reconstruction is byte-identical, so the decoded floats must be
			// exactly — not just within error bound — what a clean restore gives.
			if !reflect.DeepEqual(restoreFloats(clean), restoreFloats(got)) {
				t.Fatal("reconstructed restore differs from clean restore")
			}

			// Same erasures, clean mount, more workers: identical outcome.
			for _, workers := range []int{2, 4} {
				gw, err := Restore(med, RestoreOptions{Workers: workers,
					Retry: retry.Policy{MaxAttempts: 2}})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if gw.Report.ChunksReconstructed != wantRebuilt ||
					!reflect.DeepEqual(gw.Report.ReconstructedRanks, wantRanks) {
					t.Fatalf("workers=%d: report %+v", workers, gw.Report)
				}
				if !reflect.DeepEqual(restoreFloats(clean), restoreFloats(gw)) {
					t.Fatalf("workers=%d: restore differs from clean", workers)
				}
			}
		})
	}
}

func TestParityBeyondBudgetDegradesToPartial(t *testing.T) {
	set := testSet(5)
	med := NewMemMedium()
	res := mustWrite(t, med, set, WriteOptions{Workers: 2, ParityRanks: 2})
	erase := []int{0, 2, 4} // m+1 ranks: beyond the erasure budget
	for _, r := range erase {
		for fi := range set.Fields {
			c := res.Manifest.Chunk(r, fi)
			med.Corrupt(c.Offset + 1)
		}
	}
	ropts := RestoreOptions{Workers: 2, Retry: retry.Policy{MaxAttempts: 2}}
	if _, err := Restore(med, ropts); err == nil {
		t.Fatal("strict restore accepted > m erased ranks")
	}
	ropts.AllowPartial = true
	got, err := Restore(med, ropts)
	if err != nil {
		t.Fatalf("partial restore: %v", err)
	}
	rep := got.Report
	if rep.ChunksReconstructed != 0 {
		t.Fatalf("reconstructed %d chunks with > m erasures", rep.ChunksReconstructed)
	}
	if !reflect.DeepEqual(rep.MissingRanks, erase) {
		t.Fatalf("MissingRanks = %v, want %v", rep.MissingRanks, erase)
	}
	if len(rep.Failed) != len(erase)*len(set.Fields) {
		t.Fatalf("Failed = %+v", rep.Failed)
	}
	for _, f := range rep.Failed {
		if !errors.Is(f.Err, ErrCorrupt) {
			t.Fatalf("failure not ErrCorrupt: %+v", f)
		}
	}
}

func TestParityShardLossConsumesBudget(t *testing.T) {
	set := testSet(4)
	med := NewMemMedium()
	res := mustWrite(t, med, set, WriteOptions{Workers: 2, ParityRanks: 2})
	// Lose one data rank AND one parity shard of field 0: one parity shard
	// remains, which is exactly enough for the single data erasure.
	c := res.Manifest.Chunk(1, 0)
	med.Corrupt(c.Offset + 1)
	p := res.Manifest.ParityChunk(0, 0)
	med.Corrupt(p.Offset + 1)

	got, err := Restore(med, RestoreOptions{Workers: 2, Retry: retry.Policy{MaxAttempts: 2}})
	if err != nil {
		t.Fatalf("strict restore: %v", err)
	}
	rep := got.Report
	if rep.ChunksReconstructed != 1 {
		t.Fatalf("ChunksReconstructed = %d, want 1", rep.ChunksReconstructed)
	}
	if len(rep.ParityFailed) != 1 || rep.ParityFailed[0].Rank != set.Ranks {
		t.Fatalf("ParityFailed = %+v", rep.ParityFailed)
	}
	checkRestored(t, set, got)
}

// TestReportDeterministicAcrossWorkerCounts pins the report contract: the
// Failed, MissingRanks and ReconstructedRanks lists come out sorted and
// deduplicated whatever the worker count.
func TestReportDeterministicAcrossWorkerCounts(t *testing.T) {
	set := testSet(6)
	med := NewMemMedium()
	res := mustWrite(t, med, set, WriteOptions{Workers: 2})
	// Corrupt a scattered pattern: ranks 5, 1, 3 (deliberately unsorted).
	for _, r := range []int{5, 1, 3} {
		for fi := range set.Fields {
			c := res.Manifest.Chunk(r, fi)
			med.Corrupt(c.Offset + 2)
		}
	}
	type flatErr struct {
		Rank, Field int
		Msg         string
	}
	var refFailed []flatErr
	var refMissing []int
	for workers := 1; workers <= 8; workers++ {
		got, err := Restore(med, RestoreOptions{Workers: workers, AllowPartial: true,
			Retry: retry.Policy{MaxAttempts: 2}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		rep := got.Report
		var failed []flatErr
		for _, f := range rep.Failed {
			failed = append(failed, flatErr{f.Rank, f.Field, f.Err.Error()})
		}
		for i := 1; i < len(failed); i++ {
			a, b := failed[i-1], failed[i]
			if a.Rank > b.Rank || (a.Rank == b.Rank && a.Field >= b.Field) {
				t.Fatalf("workers=%d: Failed not strictly sorted: %+v", workers, rep.Failed)
			}
		}
		if workers == 1 {
			refFailed, refMissing = failed, rep.MissingRanks
			continue
		}
		if !reflect.DeepEqual(failed, refFailed) {
			t.Fatalf("workers=%d: Failed differs from workers=1:\n%+v\nvs\n%+v",
				workers, failed, refFailed)
		}
		if !reflect.DeepEqual(rep.MissingRanks, refMissing) {
			t.Fatalf("workers=%d: MissingRanks %v vs %v", workers, rep.MissingRanks, refMissing)
		}
	}
}

func TestVerifyScansParityAndReportsReconstructability(t *testing.T) {
	set := testSet(4)
	med := NewMemMedium()
	res := mustWrite(t, med, set, WriteOptions{Workers: 2, ParityRanks: 2})

	rep, err := VerifySet(med, VerifyOptions{Deep: true, Workers: 2})
	if err != nil {
		t.Fatalf("Verify clean: %v", err)
	}
	if rep.ParityChunks != 2*len(set.Fields) || rep.ParityOK != rep.ParityChunks {
		t.Fatalf("clean parity scan %+v", rep)
	}
	if !rep.Reconstructable {
		t.Fatal("clean set not reconstructable")
	}

	// One data chunk + one parity shard of field 0 lost: still within budget.
	med.Corrupt(res.Manifest.Chunk(0, 0).Offset + 1)
	med.Corrupt(res.Manifest.ParityChunk(0, 1).Offset + 1)
	rep, err = VerifySet(med, VerifyOptions{Workers: 2})
	if err != nil {
		t.Fatalf("Verify damaged: %v", err)
	}
	if len(rep.Failed) != 1 || len(rep.ParityFailed) != 1 {
		t.Fatalf("damaged scan %+v", rep)
	}
	if !rep.Reconstructable {
		t.Fatal("within-budget damage reported unreconstructable")
	}

	// A third stripe member of field 0 gone: budget exceeded.
	med.Corrupt(res.Manifest.Chunk(2, 0).Offset + 1)
	med.Corrupt(res.Manifest.Chunk(3, 0).Offset + 1)
	rep, err = VerifySet(med, VerifyOptions{Workers: 2})
	if err != nil {
		t.Fatalf("Verify over budget: %v", err)
	}
	if rep.Reconstructable {
		t.Fatal("over-budget damage reported reconstructable")
	}
}

// TestParityV1SetsUnchanged: a set written without parity carries no parity
// section and verifies as trivially reconstructable.
func TestParityV1SetsUnchanged(t *testing.T) {
	set := testSet(3)
	med := NewMemMedium()
	res := mustWrite(t, med, set, WriteOptions{Workers: 2})
	if res.ParityRanks != 0 || res.ParityBytes != 0 || res.ParityOverhead() != 0 {
		t.Fatalf("parity fields set on a plain write: %+v", res)
	}
	m, err := ReadManifest(med)
	if err != nil {
		t.Fatal(err)
	}
	if m.ParityRanks != 0 || len(m.ParityChunks) != 0 {
		t.Fatalf("plain manifest grew parity entries: %+v", m)
	}
	rep, err := VerifySet(med, VerifyOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ParityChunks != 0 || !rep.Reconstructable {
		t.Fatalf("plain verify %+v", rep)
	}
}

func TestCampaignPlanItemizesParityWrite(t *testing.T) {
	med := NewMemMedium()
	res := mustWrite(t, med, testSet(4), WriteOptions{Workers: 2, ParityRanks: 2})
	for _, withRestore := range []bool{false, true} {
		pl, err := res.CampaignPlan(CampaignOptions{
			Iterations: 2, ComputeSeconds: 5, WithRestore: withRestore})
		if err != nil {
			t.Fatalf("CampaignPlan(restore=%v): %v", withRestore, err)
		}
		found := false
		for _, p := range pl.Phases {
			if p.Name == "checkpoint-parity-write" {
				found = true
				if p.Workload.MemBytes <= 0 || p.Workload.StallSeconds <= 0 {
					t.Fatalf("parity phase carries no transfer: %+v", p)
				}
			}
		}
		if !found {
			t.Fatalf("restore=%v: no checkpoint-parity-write phase in %+v", withRestore, pl)
		}
		cmp, err := res.EnergyReport(CampaignOptions{
			Iterations: 2, ComputeSeconds: 5, WithRestore: withRestore})
		if err != nil {
			t.Fatal(err)
		}
		if cmp.EnergySavedPct() <= 0 {
			t.Fatalf("restore=%v: parity campaign saved %.3f%%, want > 0",
				withRestore, cmp.EnergySavedPct())
		}
	}
}

func TestParityCampaignCostsMoreThanPlain(t *testing.T) {
	set := testSet(4)
	plain := mustWrite(t, NewMemMedium(), set, WriteOptions{Workers: 2})
	par := mustWrite(t, NewMemMedium(), set, WriteOptions{Workers: 2, ParityRanks: 2})
	opts := CampaignOptions{Iterations: 3, ComputeSeconds: 5}
	cmpPlain, err := plain.EnergyReport(opts)
	if err != nil {
		t.Fatal(err)
	}
	cmpPar, err := par.EnergyReport(opts)
	if err != nil {
		t.Fatal(err)
	}
	if cmpPar.Tuned.Joules <= cmpPlain.Tuned.Joules {
		t.Fatalf("parity campaign (%.1f J) not dearer than plain (%.1f J)",
			cmpPar.Tuned.Joules, cmpPlain.Tuned.Joules)
	}
}

func TestParityEnergyBreakEven(t *testing.T) {
	med := NewMemMedium()
	res := mustWrite(t, med, testSet(4), WriteOptions{Workers: 2, ParityRanks: 2})
	pe, err := res.ParityEnergy(CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pe.ParityJoules <= 0 || pe.ParitySeconds <= 0 {
		t.Fatalf("parity premium not positive: %+v", pe)
	}
	if pe.ReconstructJoules <= 0 || pe.RedumpJoules <= 0 {
		t.Fatalf("recovery legs not positive: %+v", pe)
	}
	// Reconstruction reads m stripes; a redump recompresses AND rewrites a
	// rank's share — compression dominates, so reconstruction must win.
	if pe.ReconstructJoules >= pe.RedumpJoules {
		t.Fatalf("reconstruct (%.2f J) not cheaper than redump (%.2f J)",
			pe.ReconstructJoules, pe.RedumpJoules)
	}
	if !(pe.BreakEvenLossProb > 0) || math.IsInf(pe.BreakEvenLossProb, 1) {
		t.Fatalf("break-even = %v, want finite positive", pe.BreakEvenLossProb)
	}

	// A plain result has no premium and nothing to break even.
	plain := mustWrite(t, NewMemMedium(), testSet(4), WriteOptions{Workers: 2})
	pe0, err := plain.ParityEnergy(CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pe0.ParityJoules != 0 || !math.IsInf(pe0.BreakEvenLossProb, 1) {
		t.Fatalf("plain parity economics %+v", pe0)
	}
}

func TestParityRanksValidation(t *testing.T) {
	set := testSet(2)
	if _, err := Write(NewMemMedium(), set, WriteOptions{ParityRanks: maxParityRanks + 1}); err == nil {
		t.Fatal("accepted ParityRanks beyond cap")
	}
	if _, err := Write(NewMemMedium(), set, WriteOptions{ParityRanks: -1}); err == nil {
		t.Fatal("accepted negative ParityRanks")
	}
}
