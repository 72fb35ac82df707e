package zfp

import (
	"fmt"
	"math"
	"testing"
)

// TestByteIdentityMatrix sweeps worker counts against shard granularities
// the compress suite cannot set. Within a granularity the compressed bytes
// are identical at every worker count; and because 4^d blocks are coded
// independently, the decoded values are identical across granularities too —
// shard framing is pure transport.
func TestByteIdentityMatrix(t *testing.T) {
	dims := []int{40, 40, 40} // 10*10*10 = 1000 blocks
	data := make([]float32, dims[0]*dims[1]*dims[2])
	for i := range data {
		x := float64(i%dims[2]) / 24
		data[i] = float32(math.Sin(x)*3 + 0.1*math.Cos(float64(i)/391))
	}
	savedTarget, savedMin := shardTargetBlocks, shardMinBlocks
	defer func() { shardTargetBlocks, shardMinBlocks = savedTarget, savedMin }()
	var crossOut []byte
	for _, gran := range []struct{ min, target int }{{16, 16}, {64, 64}, {64, 4096}} {
		shardMinBlocks, shardTargetBlocks = gran.min, gran.target
		t.Run(fmt.Sprintf("gran=%v", gran), func(t *testing.T) {
			stream, decoded := oneShot(t, data, dims)
			if crossOut == nil {
				crossOut = decoded
			}
			matches(t, stream, func(w int) ([]byte, error) { return NewHandle(w).Compress(data, dims, 1e-3) })
			matches(t, crossOut, func(w int) ([]byte, error) {
				out, _, err := NewHandle(w).Decompress(stream)
				return bitsOf(out), err
			})
		})
	}
}

// TestCompressAllocsSteadyAcrossWorkers: the compress suite pins a warm
// handle's count per call; here, at 8 workers, the count is the same whether
// the field is cut into 16 shards or 68 — shard scratch is per lane, never
// per shard.
func TestCompressAllocsSteadyAcrossWorkers(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime bookkeeping inflates alloc counts")
	}
	data, dims := multiShardField(t)
	allocsAt := func(target int) float64 {
		saved := shardTargetBlocks
		shardTargetBlocks = target
		defer func() { shardTargetBlocks = saved }()
		h := NewHandle(8)
		dst, err := h.Compress(data, dims, 1e-3) // warm: size all lanes and dst
		if err != nil {
			t.Fatal(err)
		}
		// The least of five single-run readings: a GC between runs empties
		// the codec's pools.
		least := math.Inf(1)
		for i := 0; i < 5; i++ {
			least = min(least, testing.AllocsPerRun(1, func() { dst, _ = h.CompressAppend(dst[:0], data, dims, 1e-3) }))
		}
		return least
	}
	if coarse, fine := allocsAt(shardTargetBlocks), allocsAt(64); fine != coarse {
		t.Fatalf("warm 8-worker compress allocates %.0f times on 68 shards, %.0f on 16", fine, coarse)
	}
}

// TestShardPlanShape pins the adaptive shard plan: a pure function of the
// block count that fans out mid-sized grids while capping both shard size
// and per-shard overhead.
func TestShardPlanShape(t *testing.T) {
	cases := []struct {
		blocks, wantSB, wantShards int
	}{
		{1, 64, 1},            // tiny grid: one floor-sized shard
		{64, 64, 1},           // exactly the floor
		{1000, 64, 16},        // mid grid: full fan-out at the floor size
		{4352, 272, 16},       // fan-out target met above the floor
		{262144, 4096, 64},    // dim=256 grid: capped shard size
		{1 << 22, 4096, 1024}, // large grid: cap keeps shards bounded
	}
	for _, tc := range cases {
		sb, shards := shardPlan(tc.blocks)
		if sb != tc.wantSB || shards != tc.wantShards {
			t.Errorf("shardPlan(%d) = (%d, %d), want (%d, %d)",
				tc.blocks, sb, shards, tc.wantSB, tc.wantShards)
		}
		if shards != (tc.blocks+sb-1)/sb {
			t.Errorf("shardPlan(%d): shard count %d inconsistent with size %d", tc.blocks, shards, sb)
		}
	}
}
