package zfp

import (
	"testing"

	"lcpio/internal/bitstream"
	"lcpio/internal/obs"
	"lcpio/internal/wire"
)

// codedPlanes walks a fixed-accuracy float32 stream shard by shard and
// returns how many blocks it codes and the bit planes they carry, read from
// the block headers alone.
func codedPlanes(t *testing.T, stream []byte) (coded, planes int) {
	t.Helper()
	for _, p := range shardPayloads(t, "stream", stream) {
		r := bitstream.NewReader(p.bytes)
		nb := make([]uint64, blockSize(p.dim))
		for b := 0; b < p.blocks; b++ {
			isCoded, kmin, kmax, err := planesHeader(r, p.dim)
			if err == nil && isCoded {
				err = refDecodePlanes(r, nb, kmin, kmax)
			}
			if err != nil {
				t.Fatalf("%s block %d: %v", p.name, b, err)
			}
			if isCoded {
				coded++
				planes += kmax - kmin
			}
		}
	}
	return coded, planes
}

// TestBlockCostCounters: lcpio_zfp_planes_total is the sum of kmax - kmin
// over the coded blocks of the stream, lcpio_zfp_verify_total counts at
// least one cutoff verification per coded block, and both — sums of
// per-block quantities gathered in per-worker lanes — repeat exactly at any
// worker count.
func TestBlockCostCounters(t *testing.T) {
	data, dims := multiShardField(t)
	prev := obs.Use(nil)
	defer obs.Use(prev)
	var first [3]float64
	for _, workers := range []int{1, 2, 8} {
		r := obs.NewRegistry()
		obs.Use(r)
		stream, err := NewHandle(workers).Compress(data, dims, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		var got [3]float64
		for i, name := range []string{"lcpio_zfp_blocks_total", "lcpio_zfp_planes_total", "lcpio_zfp_verify_total"} {
			got[i], _ = r.CounterValue(name)
		}
		coded, planes := codedPlanes(t, stream)
		if int(got[1]) != planes || planes == 0 {
			t.Fatalf("workers=%d: lcpio_zfp_planes_total = %v, the stream's coded blocks carry %d planes", workers, got[1], planes)
		}
		if int(got[2]) < coded || got[0] < float64(coded) {
			t.Fatalf("workers=%d: %v verifications and %v blocks for %d coded blocks", workers, got[2], got[0], coded)
		}
		if workers == 1 {
			first = got
		} else if got != first {
			t.Fatalf("workers=%d: blocks, planes, verifies = %v; 1 worker counted %v", workers, got, first)
		}
	}
}

// TestBlockCostCountersFreeWhenOff: with no registry installed the counting
// is two integer adds per block in the lane and three early returns per
// call: a warm one-worker compress allocates what it did before the counters
// existed, its one worker closure.
func TestBlockCostCountersFreeWhenOff(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime bookkeeping inflates alloc counts")
	}
	if obs.Enabled() {
		t.Fatal("a registry is installed")
	}
	data, dims := multiShardField(t)
	h := NewHandle(1)
	dst, err := h.CompressAppend(nil, data, dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if dst, err = h.CompressAppend(dst[:0], data, dims, 1e-3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("warm one-worker compress with telemetry off allocates %.0f times; want at most 1", allocs)
	}
}

// TestCompressSpanTree: every shard is one zfp.shard span directly under
// zfp.compress, whatever the worker count, holding exactly one
// zfp.block_transform and nothing else, and each shard leaves one
// lcpio_zfp_shard_seconds sample. Shards run on pool goroutines, so only
// explicit parentage keeps one shard from nesting under another.
func TestCompressSpanTree(t *testing.T) {
	data, dims := multiShardField(t)
	dim, d0, d1, d2 := wire.Collapse(dims)
	nb0, nb1, nb2 := blockGrid(d0, d1, d2, dim)
	_, numShards := shardPlan(nb0 * nb1 * nb2)
	prev := obs.Use(nil)
	defer obs.Use(prev)
	for _, workers := range []int{1, 2, 3} {
		r := obs.NewRegistry()
		obs.Use(r)
		if _, err := NewHandle(workers).Compress(data, dims, 1e-3); err != nil {
			t.Fatal(err)
		}
		snap := r.Snapshot()
		if len(snap.Spans) != 1 || snap.Spans[0].Name != "zfp.compress" {
			t.Fatalf("workers=%d: roots %v, want one zfp.compress", workers, snap.Spans)
		}
		shards := snap.Spans[0].Children
		for _, s := range shards {
			if s.Name != "zfp.shard" {
				t.Fatalf("workers=%d: zfp.compress has a %q child, want zfp.shard only", workers, s.Name)
			}
			if len(s.Children) != 1 {
				t.Fatalf("workers=%d: a zfp.shard has %d children, want 1", workers, len(s.Children))
			}
			if c := s.Children[0]; c.Name != "zfp.block_transform" || len(c.Children) > 0 {
				t.Fatalf("workers=%d: a zfp.shard holds %q with %d children, want zfp.block_transform with none",
					workers, c.Name, len(c.Children))
			}
		}
		if len(shards) != numShards {
			t.Fatalf("workers=%d: %d zfp.shard spans, want %d", workers, len(shards), numShards)
		}
		if h := r.Histogram("lcpio_zfp_shard_seconds"); int(h.Count()) != numShards {
			t.Fatalf("workers=%d: %d shard-seconds samples, want %d", workers, h.Count(), numShards)
		}
	}
}
