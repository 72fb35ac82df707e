package ckpt

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"lcpio/internal/container"
	"lcpio/internal/netsim"
	"lcpio/internal/nfs"
	"lcpio/internal/retry"
)

// faultyNFSMount returns a default mount with seeded wire-level faults.
func faultyNFSMount(seed int64) nfs.Mount {
	m := nfs.DefaultMount()
	m.Faults = nfs.FaultConfig{
		Injector:       netsim.NewInjector(seed),
		DropProb:       0.05,
		ShortWriteProb: 0.05,
	}
	return m
}

// testSet builds a deterministic small set: smooth fields with rank-distinct
// phase shifts, the kind of data the sz/zfp models were built for.
func testSet(ranks int) Set {
	dims := []int{16, 24}
	elems := dims[0] * dims[1]
	mk := func(rank, field int) []float32 {
		d := make([]float32, elems)
		for i := range d {
			x := float64(i%dims[1]) / float64(dims[1])
			y := float64(i/dims[1]) / float64(dims[0])
			d[i] = float32(math.Sin(6*x+float64(rank)) * math.Cos(4*y+float64(field)))
		}
		return d
	}
	fields := []Field{
		{Name: "pressure", Dims: dims, ErrorBound: 1e-3},
		{Name: "velocity_x", Dims: dims, ErrorBound: 1e-4},
	}
	for fi := range fields {
		for r := 0; r < ranks; r++ {
			fields[fi].Data = append(fields[fi].Data, mk(r, fi))
		}
	}
	return Set{Name: "ts", Meta: "unit-test", Codec: "sz", Ranks: ranks, Fields: fields}
}

func mustWrite(t *testing.T, med Medium, set Set, opts WriteOptions) *WriteResult {
	t.Helper()
	res, err := Write(med, set, opts)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	return res
}

func checkRestored(t *testing.T, set Set, got *Restored) {
	t.Helper()
	for fi, f := range set.Fields {
		rf := got.Field(f.Name)
		if rf == nil {
			t.Fatalf("field %q missing from restore", f.Name)
		}
		for r := 0; r < set.Ranks; r++ {
			data := rf.Data[r]
			if data == nil {
				t.Fatalf("field %q rank %d not restored", f.Name, r)
			}
			for i, orig := range set.Fields[fi].Data[r] {
				if diff := math.Abs(float64(orig) - float64(data[i])); diff > f.ErrorBound*1.0000001 {
					t.Fatalf("field %q rank %d elem %d: |%g-%g| = %g > eb %g",
						f.Name, r, i, orig, data[i], diff, f.ErrorBound)
				}
			}
		}
	}
}

func TestRoundTripByteIdenticalAcrossWorkerCounts(t *testing.T) {
	set := testSet(3)
	var ref []byte
	var refManifest []ChunkInfo
	for _, workers := range []int{1, 2, 4, 8} {
		med := NewMemMedium()
		res := mustWrite(t, med, set, WriteOptions{Workers: workers})
		if res.Chunks != 6 {
			t.Fatalf("workers=%d: chunks = %d, want 6", workers, res.Chunks)
		}
		if ref == nil {
			ref = append([]byte(nil), med.Bytes()...)
			refManifest = append([]ChunkInfo(nil), res.Manifest.Chunks...)
		} else {
			if !bytes.Equal(ref, med.Bytes()) {
				t.Fatalf("workers=%d: file bytes differ from workers=1", workers)
			}
			for i, c := range res.Manifest.Chunks {
				if c != refManifest[i] {
					t.Fatalf("workers=%d: chunk %d manifest entry differs: %+v vs %+v",
						workers, i, c, refManifest[i])
				}
			}
		}
		got, err := Restore(med, RestoreOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: Restore: %v", workers, err)
		}
		checkRestored(t, set, got)
		if got.Report.ChunksOK != 6 || got.Report.ChunksReread != 0 || len(got.Report.Failed) != 0 {
			t.Fatalf("workers=%d: unexpected report %+v", workers, got.Report)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	med := NewMemMedium()
	set := testSet(2)
	res := mustWrite(t, med, set, WriteOptions{Workers: 2})
	m, err := ReadManifest(med)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if m.SetName != set.Name || m.Meta != set.Meta || m.Codec != set.Codec || m.Ranks != set.Ranks {
		t.Fatalf("manifest header mismatch: %+v", m)
	}
	if m.NumChunks() != res.Chunks || m.PayloadBytes() != res.PayloadBytes || m.RawBytes() != res.RawBytes {
		t.Fatalf("manifest sizes disagree with write result")
	}
	if c := m.Chunk(1, 1); c.Rank != 1 || c.Field != 1 {
		t.Fatalf("Chunk(1,1) = %+v", c)
	}
}

func TestOverlapPipelinedBeatsSerial(t *testing.T) {
	med := NewMemMedium()
	res := mustWrite(t, med, testSet(4), WriteOptions{Workers: 4})
	if res.SimPipelinedSeconds > res.SimSerialSeconds+1e-12 {
		t.Fatalf("pipelined %.6g > serial %.6g", res.SimPipelinedSeconds, res.SimSerialSeconds)
	}
	if res.OverlapMargin() < 0 {
		t.Fatalf("negative overlap margin %v", res.OverlapMargin())
	}
	if res.SimWriteSeconds <= 0 || res.CompressWallSeconds <= 0 {
		t.Fatalf("degenerate timings: %+v", res)
	}
	if res.Ratio() <= 1 {
		t.Fatalf("ratio %v not > 1 on smooth data", res.Ratio())
	}
}

func TestWriteFaultsRetriedToSuccess(t *testing.T) {
	set := testSet(3)
	clean := NewMemMedium()
	mustWrite(t, clean, set, WriteOptions{Workers: 2})

	inner := NewMemMedium()
	med := NewFaultyMedium(inner, 7, FaultProfile{WriteErrProb: 0.25, ShortWriteProb: 0.25})
	res := mustWrite(t, med, set, WriteOptions{Workers: 2})
	if res.Retries == 0 {
		t.Fatal("expected transient faults to force retries")
	}
	if !bytes.Equal(clean.Bytes(), inner.Bytes()) {
		t.Fatal("faulty-path bytes differ from clean write")
	}
	got, err := Restore(inner, RestoreOptions{Workers: 2})
	if err != nil {
		t.Fatalf("Restore after faulty write: %v", err)
	}
	checkRestored(t, set, got)
}

func TestWriteFaultDeterminism(t *testing.T) {
	set := testSet(2)
	run := func(seed int64) int64 {
		med := NewFaultyMedium(NewMemMedium(), seed, FaultProfile{WriteErrProb: 0.3, ShortWriteProb: 0.3})
		return mustWrite(t, med, set, WriteOptions{Workers: 2}).Retries
	}
	if a, b := run(11), run(11); a != b {
		t.Fatalf("same seed, different retry counts: %d vs %d", a, b)
	}
}

func TestRetryExhaustion(t *testing.T) {
	med := NewFaultyMedium(NewMemMedium(), 1, FaultProfile{WriteErrProb: 1})
	_, err := Write(med, testSet(1), WriteOptions{Workers: 1, Retry: retry.Policy{MaxAttempts: 3}})
	if err == nil || !errors.Is(err, ErrTransient) {
		t.Fatalf("want ErrTransient exhaustion, got %v", err)
	}
	if !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("error lacks attempt count: %v", err)
	}
}

func TestTransientReadCorruptionRereadsOnlyThatChunk(t *testing.T) {
	set := testSet(3)
	inner := NewMemMedium()
	mustWrite(t, inner, set, WriteOptions{Workers: 2})
	med := NewFaultyMedium(inner, 5, FaultProfile{ReadCorruptProb: 0.5})
	got, err := Restore(med, RestoreOptions{Workers: 2})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	checkRestored(t, set, got)
	if got.Report.ChunksReread == 0 {
		t.Fatal("expected at least one digest-triggered re-read")
	}
	if got.Report.ChunksReread > got.Report.ChunksOK {
		t.Fatalf("reread %d chunks but only %d total OK", got.Report.ChunksReread, got.Report.ChunksOK)
	}
	if got.Report.Retries < int64(got.Report.ChunksReread) {
		t.Fatalf("retries %d below reread count %d", got.Report.Retries, got.Report.ChunksReread)
	}
}

func TestTransientReadErrorsRetried(t *testing.T) {
	set := testSet(2)
	inner := NewMemMedium()
	mustWrite(t, inner, set, WriteOptions{Workers: 2})
	med := NewFaultyMedium(inner, 3, FaultProfile{ReadErrProb: 0.2})
	got, err := Restore(med, RestoreOptions{Workers: 2, Retry: retry.Policy{MaxAttempts: 8}})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	checkRestored(t, set, got)
}

func TestPersistentCorruptionDetectedAndReported(t *testing.T) {
	set := testSet(3)
	med := NewMemMedium()
	res := mustWrite(t, med, set, WriteOptions{Workers: 2})
	bad := res.Manifest.Chunk(1, 0)
	med.Corrupt(bad.Offset + bad.Size/2)

	if _, err := Restore(med, RestoreOptions{Workers: 2}); err == nil {
		t.Fatal("strict restore accepted a corrupted chunk")
	}

	got, err := Restore(med, RestoreOptions{Workers: 2, AllowPartial: true,
		Retry: retry.Policy{MaxAttempts: 2}})
	if err != nil {
		t.Fatalf("partial restore: %v", err)
	}
	if len(got.Report.Failed) != 1 {
		t.Fatalf("failed = %+v, want exactly the corrupted chunk", got.Report.Failed)
	}
	f := got.Report.Failed[0]
	if f.Rank != 1 || f.Field != 0 || !errors.Is(f.Err, ErrCorrupt) {
		t.Fatalf("wrong failure report: %+v", f)
	}
	if got.Fields[0].Data[1] != nil {
		t.Fatal("corrupted chunk returned data")
	}
	// Every other chunk must still be within bound.
	if got.Report.ChunksOK != 5 {
		t.Fatalf("chunksOK = %d, want 5", got.Report.ChunksOK)
	}
	if len(got.Report.MissingRanks) != 0 {
		t.Fatalf("rank 1 still has its other field; MissingRanks = %v", got.Report.MissingRanks)
	}
}

func TestMissingRankReported(t *testing.T) {
	set := testSet(3)
	med := NewMemMedium()
	res := mustWrite(t, med, set, WriteOptions{Workers: 2})
	for fi := range set.Fields {
		c := res.Manifest.Chunk(2, fi)
		med.Corrupt(c.Offset + 3)
	}
	got, err := Restore(med, RestoreOptions{Workers: 2, AllowPartial: true,
		Retry: retry.Policy{MaxAttempts: 2}})
	if err != nil {
		t.Fatalf("partial restore: %v", err)
	}
	if len(got.Report.MissingRanks) != 1 || got.Report.MissingRanks[0] != 2 {
		t.Fatalf("MissingRanks = %v, want [2]", got.Report.MissingRanks)
	}
	if len(got.Report.Failed) != len(set.Fields) {
		t.Fatalf("failed = %+v", got.Report.Failed)
	}
}

func TestVerifyShallowAndDeep(t *testing.T) {
	set := testSet(2)
	med := NewMemMedium()
	res := mustWrite(t, med, set, WriteOptions{Workers: 2})
	for _, deep := range []bool{false, true} {
		rep, err := VerifySet(med, VerifyOptions{Deep: deep, Workers: 2})
		if err != nil {
			t.Fatalf("Verify(deep=%v): %v", deep, err)
		}
		if rep.ChunksOK != rep.Chunks || rep.Chunks != res.Chunks {
			t.Fatalf("Verify(deep=%v) = %+v", deep, rep)
		}
	}
	c := res.Manifest.Chunk(0, 1)
	med.Corrupt(c.Offset + 1)
	rep, err := VerifySet(med, VerifyOptions{Workers: 2})
	if err != nil {
		t.Fatalf("Verify corrupted: %v", err)
	}
	if len(rep.Failed) != 1 || rep.Failed[0].Rank != 0 || rep.Failed[0].Field != 1 {
		t.Fatalf("Verify failed list = %+v", rep.Failed)
	}
}

// TestDeepVerifyBudget holds a deep verify of a 16 MiB set to what it needs:
// each piece's stored bytes, read once to be digested, and per lane one slab
// the size of the largest container chunk, which every piece decodes into.
// Decoding each piece into an array of its own made this 1.1 × the raw bytes
// on top.
func TestDeepVerifyBudget(t *testing.T) {
	const lanes = 2
	set := deltaSet("deep", 4, 512, 1024)
	med := NewMemMedium()
	res := mustWrite(t, med, set, WriteOptions{Workers: lanes})
	var slab int64
	for _, f := range res.Manifest.Fields {
		slab = max(slab, 4*min(int64(f.Elems()), container.DefaultChunkElems))
	}
	alloc := uint64(math.MaxUint64) // TotalAlloc is process-wide: the least of three
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := VerifySet(med, VerifyOptions{Deep: true, Workers: lanes})
		runtime.ReadMemStats(&after)
		if err != nil || rep.ChunksOK != res.Chunks {
			t.Fatalf("deep verify: %+v, %v", rep, err)
		}
		alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("raw %d B, stored %d B, slab %d B: deep verify allocated %d B", res.RawBytes, res.FileBytes, slab, alloc)
	// The constant is the lanes' codec state, which every VerifySet makes
	// anew, with the room -race needs (see TestDeltaWriteBudgets).
	if budget := uint64(res.FileBytes+lanes*slab) + 4<<20; alloc > budget {
		t.Fatalf("deep verify of %d raw bytes allocated %d, want <= %d (stored %d + %d slabs of %d + 4 MiB)",
			res.RawBytes, alloc, budget, res.FileBytes, lanes, slab)
	}
}

func TestFileMediumRoundTrip(t *testing.T) {
	set := testSet(2)
	path := filepath.Join(t.TempDir(), "set.lcpt")
	fm, err := CreateFileMedium(path)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, fm, set, WriteOptions{Workers: 2})
	if err := fm.Close(); err != nil {
		t.Fatal(err)
	}
	rm, err := OpenFileMedium(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	got, err := Restore(rm, RestoreOptions{Workers: 2})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	checkRestored(t, set, got)
}

func TestWireFaultsFlowThroughMount(t *testing.T) {
	set := testSet(2)
	med := NewMemMedium()
	opts := WriteOptions{Workers: 2}
	opts.Mount = faultyNFSMount(9)
	res := mustWrite(t, med, set, opts)
	if res.WireRetransmits == 0 {
		t.Fatal("expected injected wire retransmits")
	}
	got, err := Restore(med, RestoreOptions{Workers: 2})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	checkRestored(t, set, got)
}

func TestSetValidation(t *testing.T) {
	base := testSet(2)
	cases := []struct {
		name string
		mut  func(*Set)
	}{
		{"no ranks", func(s *Set) { s.Ranks = 0 }},
		{"no fields", func(s *Set) { s.Fields = nil }},
		{"bad codec", func(s *Set) { s.Codec = "nope" }},
		{"empty codec", func(s *Set) { s.Codec = "" }},
		{"bad dim", func(s *Set) { s.Fields[0].Dims = []int{0, 3} }},
		{"bad eb", func(s *Set) { s.Fields[0].ErrorBound = 0 }},
		{"rank mismatch", func(s *Set) { s.Fields[0].Data = s.Fields[0].Data[:1] }},
		{"elem mismatch", func(s *Set) { s.Fields[0].Data[0] = s.Fields[0].Data[0][:7] }},
		{"empty field name", func(s *Set) { s.Fields[0].Name = "" }},
	}
	for _, tc := range cases {
		s := testSet(2)
		tc.mut(&s)
		if _, err := Write(NewMemMedium(), s, WriteOptions{}); err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
	if err := base.validate(); err != nil {
		t.Fatalf("base set invalid: %v", err)
	}
	// The shape caps are package wire's; the error is this package's.
	for _, dims := range [][]int{{1, 1, 1, 1, 1, 1, 1, 1, 12}, {12, 0}} {
		s := testSet(2)
		s.Fields[0].Dims = dims
		if err := s.validate(); err == nil || !strings.HasPrefix(err.Error(), "ckpt: ") {
			t.Errorf("dims %v: got %v, want a ckpt error", dims, err)
		}
	}
}

func TestReadManifestRejectsTruncation(t *testing.T) {
	med := NewMemMedium()
	mustWrite(t, med, testSet(1), WriteOptions{Workers: 1})
	full := med.Bytes()
	for _, cut := range []int{0, headerLen, len(full) - footerLen, len(full) - 1} {
		trunc := NewMemMedium()
		if cut > 0 {
			if _, err := trunc.WriteAt(full[:cut], 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ReadManifest(trunc); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestEnergyReport(t *testing.T) {
	med := NewMemMedium()
	res := mustWrite(t, med, testSet(2), WriteOptions{Workers: 2})
	for _, withRestore := range []bool{false, true} {
		cmp, err := res.EnergyReport(CampaignOptions{
			Iterations: 3, ComputeSeconds: 10, WithRestore: withRestore})
		if err != nil {
			t.Fatalf("EnergyReport(restore=%v): %v", withRestore, err)
		}
		if cmp.EnergySavedPct() <= 0 {
			t.Errorf("restore=%v: tuned campaign saved %.3f%%, want > 0",
				withRestore, cmp.EnergySavedPct())
		}
		if cmp.Tuned.Seconds < cmp.Base.Seconds {
			t.Errorf("restore=%v: tuned faster than base", withRestore)
		}
	}
}

func TestOverheadBytesMatchesRealManifest(t *testing.T) {
	med := NewMemMedium()
	res := mustWrite(t, med, testSet(4), WriteOptions{Workers: 2})
	actual := res.FileBytes - res.PayloadBytes
	est := OverheadBytes(len(res.Manifest.Fields), res.Manifest.Ranks, 12, 2)
	// The estimate feeds a fleet model; it should be the right order of
	// magnitude, not exact.
	if est < actual/2 || est > actual*4 {
		t.Fatalf("OverheadBytes = %d, actual framing = %d", est, actual)
	}
}
