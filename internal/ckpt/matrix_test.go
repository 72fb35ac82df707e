package ckpt

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// The report matrices characterize Restore and VerifySet over both parity-
// protected set kinds and every damage class the read path distinguishes.
// The literals were recorded from the three-format implementation (one
// restorer and verifier per format) before the read paths were merged, and
// every worker count must reproduce them: they are the contract the single
// read path is held to. SimReadSeconds is left out — it is a float sum whose
// last bit depends on accumulation order.

// firstReadCorrupt corrupts the first read that starts at off; re-reads are
// clean — one deterministic transient fault, whatever the worker count.
type firstReadCorrupt struct {
	*MemMedium
	off  int64
	done bool
}

func (m *firstReadCorrupt) ReadAt(p []byte, off int64) (int, error) {
	n, err := m.MemMedium.ReadAt(p, off)
	// Each extent is fetched by exactly one worker, so done needs no lock.
	if off == m.off && !m.done && n > 0 {
		m.done = true
		p[n/2] ^= 0x04
	}
	return n, err
}

type matrixKind struct {
	name  string
	set   Set
	image []byte
	m     *Manifest
	bases []Medium
}

// matrixKinds writes one 5-rank, 2-parity set of each kind.
func matrixKinds(t *testing.T) []matrixKind {
	t.Helper()
	full := deltaSet("full", 5, 48, 64)
	fullMed := NewMemMedium()
	fullRes := mustWrite(t, fullMed, full, WriteOptions{Workers: 2, ParityRanks: 2})

	baseMed := NewMemMedium()
	mustWrite(t, baseMed, full, WriteOptions{Workers: 2})
	// Two churned regions per payload with unchanged content between them,
	// so every stream owns two blobs and a rank's parity region is a
	// concatenation, not a single extent.
	next := churn(full, "delta-p", 0.1)
	for _, f := range next.Fields {
		for r, d := range f.Data {
			for i := len(d)/2 + r*37; i < len(d)/2+r*37+len(d)/10; i++ {
				d[i] += float32(10 * f.ErrorBound)
			}
		}
	}
	deltaMed := NewMemMedium()
	deltaRes := mustWrite(t, deltaMed, next, WriteOptions{Workers: 2, ParityRanks: 2,
		Base: mustOpenBase(t, baseMed, nil, deltaParams)})
	return []matrixKind{
		{"full+parity", full, fullMed.Bytes(), fullRes.Manifest, nil},
		{"delta+parity", next, deltaMed.Bytes(), deltaRes.Manifest, []Medium{baseMed}},
	}
}

// owned lists the stored extents whose parity region belongs to rank: its
// chunks on a full set, the blobs its streams own on a delta set.
func (k *matrixKind) owned(rank int) []ChunkInfo {
	nFields := len(k.m.Fields)
	var out []ChunkInfo
	for i, c := range k.m.Chunks {
		if i/nFields == rank {
			out = append(out, c)
		}
	}
	for _, b := range k.m.Blobs {
		if b.owner/nFields == rank {
			out = append(out, ChunkInfo{Offset: b.Offset, Size: b.Size})
		}
	}
	return out
}

// damaged returns a fresh copy of the set's image with the scenario applied.
func (k *matrixKind) damaged(t *testing.T, scenario string) Medium {
	t.Helper()
	med := NewMemMedium()
	if _, err := med.WriteAt(k.image, 0); err != nil {
		t.Fatal(err)
	}
	loseRank := func(r int) {
		ext := k.owned(r)
		if len(ext) == 0 {
			t.Fatalf("rank %d owns no stored extent", r)
		}
		for _, c := range ext {
			med.Corrupt(c.Offset + 1)
		}
	}
	loseShard := func(field, j int) { med.Corrupt(k.m.ParityChunk(field, j).Offset + 1) }
	switch scenario {
	case "clean":
	case "reread":
		return &firstReadCorrupt{MemMedium: med, off: k.owned(1)[0].Offset}
	case "extent-lost":
		med.Corrupt(k.owned(1)[0].Offset + 1)
	case "rank-lost":
		loseRank(1)
	case "shard-lost":
		loseShard(0, 0)
	case "rank+shard-lost":
		loseRank(1)
		loseShard(0, 0)
	case "beyond-budget":
		loseRank(0)
		loseRank(2)
		loseRank(4)
	default:
		t.Fatalf("unknown scenario %q", scenario)
	}
	return med
}

var matrixScenarios = []string{"clean", "reread", "extent-lost", "rank-lost", "shard-lost", "rank+shard-lost", "beyond-budget"}

func renderChunkErrors(errs []ChunkError) string {
	var parts []string
	for _, e := range errs {
		parts = append(parts, fmt.Sprintf("(%d,%d): %v", e.Rank, e.Field, e.Err))
	}
	return "[" + strings.Join(parts, "; ") + "]"
}

func renderRestoreReport(r *RestoreReport) string {
	return fmt.Sprintf("ok=%d reread=%d recon=%d reconRanks=%v parityRead=%d parityFailed=%s retries=%d failed=%s missing=%v",
		r.ChunksOK, r.ChunksReread, r.ChunksReconstructed, r.ReconstructedRanks, r.ParityChunksRead,
		renderChunkErrors(r.ParityFailed), r.Retries, renderChunkErrors(r.Failed), r.MissingRanks)
}

func renderVerifyReport(r *VerifyReport) string {
	return fmt.Sprintf("chunks=%d ok=%d failed=%s parity=%d parityOK=%d parityFailed=%s reconstructable=%v refs=%d refsOK=%d baseErr=%v",
		r.Chunks, r.ChunksOK, renderChunkErrors(r.Failed), r.ParityChunks, r.ParityOK,
		renderChunkErrors(r.ParityFailed), r.Reconstructable, r.RefChunks, r.RefsOK, r.BaseErr)
}

const (
	givingUp = "giving up after 2 attempts: ckpt: corrupt checkpoint set: chunk digest mismatch"
	mismatch = "ckpt: corrupt checkpoint set: chunk digest mismatch"
)

var restoreMatrixWant = map[string]string{
	"full+parity/clean":            "ok=10 reread=0 recon=0 reconRanks=[] parityRead=0 parityFailed=[] retries=0 failed=[] missing=[]",
	"full+parity/reread":           "ok=10 reread=1 recon=0 reconRanks=[] parityRead=0 parityFailed=[] retries=1 failed=[] missing=[]",
	"full+parity/extent-lost":      "ok=10 reread=1 recon=1 reconRanks=[1] parityRead=1 parityFailed=[] retries=1 failed=[] missing=[]",
	"full+parity/rank-lost":        "ok=10 reread=2 recon=2 reconRanks=[1] parityRead=2 parityFailed=[] retries=2 failed=[] missing=[]",
	"full+parity/shard-lost":       "ok=10 reread=0 recon=0 reconRanks=[] parityRead=0 parityFailed=[] retries=0 failed=[] missing=[]",
	"full+parity/rank+shard-lost":  "ok=10 reread=2 recon=2 reconRanks=[1] parityRead=3 parityFailed=[(5,0): " + givingUp + "] retries=3 failed=[] missing=[]",
	"full+parity/beyond-budget":    "ok=4 reread=6 recon=0 reconRanks=[] parityRead=0 parityFailed=[] retries=6 failed=[(0,0): " + givingUp + "; (0,1): " + givingUp + "; (2,0): " + givingUp + "; (2,1): " + givingUp + "; (4,0): " + givingUp + "; (4,1): " + givingUp + "] missing=[0 2 4]",
	"delta+parity/clean":           "ok=10 reread=0 recon=0 reconRanks=[] parityRead=0 parityFailed=[] retries=0 failed=[] missing=[]",
	"delta+parity/reread":          "ok=10 reread=1 recon=0 reconRanks=[] parityRead=0 parityFailed=[] retries=1 failed=[] missing=[]",
	"delta+parity/extent-lost":     "ok=10 reread=1 recon=1 reconRanks=[1] parityRead=1 parityFailed=[] retries=1 failed=[] missing=[]",
	"delta+parity/rank-lost":       "ok=10 reread=4 recon=4 reconRanks=[1] parityRead=2 parityFailed=[] retries=4 failed=[] missing=[]",
	"delta+parity/shard-lost":      "ok=10 reread=0 recon=0 reconRanks=[] parityRead=0 parityFailed=[] retries=0 failed=[] missing=[]",
	"delta+parity/rank+shard-lost": "ok=10 reread=4 recon=4 reconRanks=[1] parityRead=3 parityFailed=[(5,0): " + givingUp + "] retries=5 failed=[] missing=[]",
	"delta+parity/beyond-budget":   "ok=4 reread=12 recon=0 reconRanks=[] parityRead=0 parityFailed=[] retries=12 failed=[(0,0): " + givingUp + "; (0,1): " + givingUp + "; (2,0): " + givingUp + "; (2,1): " + givingUp + "; (4,0): " + givingUp + "; (4,1): " + givingUp + "] missing=[0 2 4]",
}

func TestRestoreReportMatrix(t *testing.T) {
	for _, k := range matrixKinds(t) {
		for _, sc := range matrixScenarios {
			for _, workers := range []int{1, 2, 8} {
				name := k.name + "/" + sc
				got, err := Restore(k.damaged(t, sc), RestoreOptions{Workers: workers, Bases: k.bases,
					AllowPartial: sc == "beyond-budget", Retry: RetryPolicy{MaxAttempts: 2}})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				if line := renderRestoreReport(&got.Report); line != restoreMatrixWant[name] {
					t.Errorf("%s workers=%d:\n got %q\nwant %q", name, workers, line, restoreMatrixWant[name])
				}
				// Every (rank, field) not reported failed is back within bound;
				// every failed one is absent.
				failed := make(map[[2]int]bool)
				for _, f := range got.Report.Failed {
					failed[[2]int{f.Rank, f.Field}] = true
				}
				for fi, f := range k.set.Fields {
					for r, orig := range f.Data {
						data := got.Fields[fi].Data[r]
						if failed[[2]int{r, fi}] {
							if data != nil {
								t.Errorf("%s workers=%d: failed (rank %d, field %d) returned data", name, workers, r, fi)
							}
							continue
						}
						if len(data) != len(orig) {
							t.Fatalf("%s workers=%d: (rank %d, field %d) has %d elements, want %d",
								name, workers, r, fi, len(data), len(orig))
						}
						for i, v := range orig {
							if d := float64(v) - float64(data[i]); d > f.ErrorBound*1.0000001 || d < -f.ErrorBound*1.0000001 {
								t.Fatalf("%s workers=%d: (rank %d, field %d) elem %d off by %g", name, workers, r, fi, i, d)
							}
						}
					}
				}
			}
		}
	}
}

var verifyMatrixWant = map[string]string{
	"full+parity/clean":            "chunks=10 ok=10 failed=[] parity=4 parityOK=4 parityFailed=[] reconstructable=true refs=0 refsOK=0 baseErr=<nil>",
	"full+parity/reread":           "chunks=10 ok=9 failed=[(1,0): " + mismatch + "] parity=4 parityOK=4 parityFailed=[] reconstructable=true refs=0 refsOK=0 baseErr=<nil>",
	"full+parity/extent-lost":      "chunks=10 ok=9 failed=[(1,0): " + mismatch + "] parity=4 parityOK=4 parityFailed=[] reconstructable=true refs=0 refsOK=0 baseErr=<nil>",
	"full+parity/rank-lost":        "chunks=10 ok=8 failed=[(1,0): " + mismatch + "; (1,1): " + mismatch + "] parity=4 parityOK=4 parityFailed=[] reconstructable=true refs=0 refsOK=0 baseErr=<nil>",
	"full+parity/shard-lost":       "chunks=10 ok=10 failed=[] parity=4 parityOK=3 parityFailed=[(5,0): " + mismatch + "] reconstructable=true refs=0 refsOK=0 baseErr=<nil>",
	"full+parity/rank+shard-lost":  "chunks=10 ok=8 failed=[(1,0): " + mismatch + "; (1,1): " + mismatch + "] parity=4 parityOK=3 parityFailed=[(5,0): " + mismatch + "] reconstructable=true refs=0 refsOK=0 baseErr=<nil>",
	"full+parity/beyond-budget":    "chunks=10 ok=4 failed=[(0,0): " + mismatch + "; (0,1): " + mismatch + "; (2,0): " + mismatch + "; (2,1): " + mismatch + "; (4,0): " + mismatch + "; (4,1): " + mismatch + "] parity=4 parityOK=4 parityFailed=[] reconstructable=false refs=0 refsOK=0 baseErr=<nil>",
	"delta+parity/clean":           "chunks=20 ok=20 failed=[] parity=4 parityOK=4 parityFailed=[] reconstructable=true refs=23 refsOK=23 baseErr=<nil>",
	"delta+parity/reread":          "chunks=20 ok=19 failed=[(1,0): " + mismatch + "] parity=4 parityOK=4 parityFailed=[] reconstructable=true refs=23 refsOK=23 baseErr=<nil>",
	"delta+parity/extent-lost":     "chunks=20 ok=19 failed=[(1,0): " + mismatch + "] parity=4 parityOK=4 parityFailed=[] reconstructable=true refs=23 refsOK=23 baseErr=<nil>",
	"delta+parity/rank-lost":       "chunks=20 ok=16 failed=[(1,0): " + mismatch + "; (1,0): " + mismatch + "; (1,1): " + mismatch + "; (1,1): " + mismatch + "] parity=4 parityOK=4 parityFailed=[] reconstructable=true refs=23 refsOK=23 baseErr=<nil>",
	"delta+parity/shard-lost":      "chunks=20 ok=20 failed=[] parity=4 parityOK=3 parityFailed=[(5,0): " + mismatch + "] reconstructable=true refs=23 refsOK=23 baseErr=<nil>",
	"delta+parity/rank+shard-lost": "chunks=20 ok=16 failed=[(1,0): " + mismatch + "; (1,0): " + mismatch + "; (1,1): " + mismatch + "; (1,1): " + mismatch + "] parity=4 parityOK=3 parityFailed=[(5,0): " + mismatch + "] reconstructable=true refs=23 refsOK=23 baseErr=<nil>",
	"delta+parity/beyond-budget":   "chunks=20 ok=8 failed=[(0,0): " + mismatch + "; (0,0): " + mismatch + "; (0,1): " + mismatch + "; (0,1): " + mismatch + "; (2,0): " + mismatch + "; (2,0): " + mismatch + "; (2,1): " + mismatch + "; (2,1): " + mismatch + "; (4,0): " + mismatch + "; (4,0): " + mismatch + "; (4,1): " + mismatch + "; (4,1): " + mismatch + "] parity=4 parityOK=4 parityFailed=[] reconstructable=false refs=23 refsOK=23 baseErr=<nil>",
}

func TestVerifyReportMatrix(t *testing.T) {
	for _, k := range matrixKinds(t) {
		for _, sc := range matrixScenarios {
			for _, workers := range []int{1, 2, 8} {
				name := k.name + "/" + sc
				rep, err := VerifySet(k.damaged(t, sc), VerifyOptions{Deep: true, Workers: workers, Bases: k.bases})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				if line := renderVerifyReport(rep); line != verifyMatrixWant[name] {
					t.Errorf("%s workers=%d:\n got %q\nwant %q", name, workers, line, verifyMatrixWant[name])
				}
			}
		}
	}
}

// writeKind is one of the four kinds of set the one write path produces.
type writeKind struct {
	name  string
	set   Set
	opts  WriteOptions
	bases []Medium
}

func writeKinds(t *testing.T) []writeKind {
	t.Helper()
	full := deltaSet("full", 4, 48, 64)
	baseMed := NewMemMedium()
	mustWrite(t, baseMed, full, WriteOptions{Workers: 2})
	base := mustOpenBase(t, baseMed, nil, deltaParams)
	next := churn(full, "next", 0.2)
	bases := []Medium{baseMed}
	return []writeKind{
		{"full", full, WriteOptions{}, nil},
		{"parity", full, WriteOptions{ParityRanks: 2}, nil},
		{"delta", next, WriteOptions{Base: base}, bases},
		{"delta+parity", next, WriteOptions{Base: base, ParityRanks: 2}, bases},
	}
}

// TestWriteByteIdenticalAllKinds: one write path serves full, parity, delta
// and delta+parity sets, and each kind's file is byte-identical at any
// worker count and queue depth.
func TestWriteByteIdenticalAllKinds(t *testing.T) {
	for _, k := range writeKinds(t) {
		var ref []byte
		for _, workers := range []int{1, 2, 8} {
			for _, depth := range []int{1, 0} { // 1 is raised to the floor, Workers+1
				opts := k.opts
				opts.Workers, opts.QueueDepth = workers, depth
				med := NewMemMedium()
				mustWrite(t, med, k.set, opts)
				if ref == nil {
					ref = append([]byte(nil), med.Bytes()...)
				} else if !bytes.Equal(ref, med.Bytes()) {
					t.Fatalf("%s: workers=%d depth=%d: file differs from workers=1", k.name, workers, depth)
				}
			}
		}
	}
}
