package zfp

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"testing"
)

// TestByteIdentityMatrix sweeps worker counts against shard granularities.
// Within a granularity the compressed bytes must be identical at every
// worker count; and because 4^d blocks are coded independently, the decoded
// values must be identical across granularities too — shard framing is pure
// transport.
func TestByteIdentityMatrix(t *testing.T) {
	dims := []int{40, 40, 40} // 10*10*10 = 1000 blocks
	data := make([]float32, dims[0]*dims[1]*dims[2])
	for i := range data {
		x := float64(i%dims[2]) / 24
		data[i] = float32(math.Sin(x)*3 + 0.1*math.Cos(float64(i)/391))
	}
	const eb = 1e-3
	workerCounts := []int{1, 2, 3, 5, 8}

	savedTarget, savedMin := shardTargetBlocks, shardMinBlocks
	defer func() { shardTargetBlocks, shardMinBlocks = savedTarget, savedMin }()

	var crossOut []float32
	for _, gran := range []struct{ min, target int }{
		{16, 16}, {64, 64}, {64, 4096},
	} {
		shardMinBlocks, shardTargetBlocks = gran.min, gran.target

		var refStream []byte
		for _, workers := range workerCounts {
			got, err := NewHandle(workers).Compress(data, dims, eb)
			if err != nil {
				t.Fatalf("gran=%v workers=%d: %v", gran, workers, err)
			}
			if refStream == nil {
				refStream = got
				continue
			}
			if !bytes.Equal(refStream, got) {
				t.Fatalf("gran=%v workers=%d: compressed bytes differ across worker counts", gran, workers)
			}
		}

		var refOut []float32
		for _, workers := range workerCounts {
			out, _, err := NewHandle(workers).Decompress(refStream)
			if err != nil {
				t.Fatalf("gran=%v workers=%d: decompress: %v", gran, workers, err)
			}
			if refOut == nil {
				refOut = out
				for i := range data {
					if d := math.Abs(float64(out[i]) - float64(data[i])); d > eb {
						t.Fatalf("gran=%v: element %d error %g > bound %g", gran, i, d, eb)
					}
				}
				continue
			}
			for i := range refOut {
				if refOut[i] != out[i] {
					t.Fatalf("gran=%v workers=%d: decoded element %d differs across worker counts",
						gran, workers, i)
				}
			}
		}
		if crossOut == nil {
			crossOut = refOut
			continue
		}
		for i := range crossOut {
			if crossOut[i] != refOut[i] {
				t.Fatalf("gran=%v: decoded element %d differs across shard granularities", gran, i)
			}
		}
	}
}

// TestCompressAllocsSteadyAcrossWorkers: with a warm Handle and reused
// destination, raising the worker count may only add goroutine fan-out
// machinery — shard scratch is per-lane, so it must not scale with the
// shard count.
func TestCompressAllocsSteadyAcrossWorkers(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime bookkeeping inflates alloc counts")
	}
	data, dims := multiShardField(t)
	const eb = 1e-3

	measure := func(workers int) float64 {
		c := NewHandle(workers)
		var dst []byte
		var err error
		dst, err = c.Compress(data, dims, eb) // warm: size all lanes and dst
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			dst, err = c.CompressAppend(dst[:0], data, dims, eb)
			if err != nil {
				t.Fatal(err)
			}
		})
	}

	a1 := measure(1)
	a8 := measure(8)
	if a1 > 16 {
		t.Fatalf("1-worker warm compress allocates %.0f times/op; want <= 16", a1)
	}
	if a8 > 96 {
		t.Fatalf("8-worker warm compress allocates %.0f times/op; want <= 96 (scratch must be per-lane)", a8)
	}
	if a8-a1 > 64 {
		t.Fatalf("worker fan-out adds %.0f allocs/op (1w=%.0f, 8w=%.0f); want goroutine machinery only",
			a8-a1, a1, a8)
	}
}

// TestScalingGate is the CI scaling gate invoked by scripts/check.sh: on a
// host with at least 8 cores, 8-worker compression must run at >= 3x the
// 1-worker throughput. Opt-in via LCPIO_SCALING_GATE because wall-time
// throughput assertions are meaningless on loaded or narrow machines.
func TestScalingGate(t *testing.T) {
	if os.Getenv("LCPIO_SCALING_GATE") == "" {
		t.Skip("scaling gate is opt-in: set LCPIO_SCALING_GATE=1 (scripts/check.sh does)")
	}
	if runtime.NumCPU() < 8 {
		t.Skipf("host has %d CPUs; the 8-worker >= 3x gate needs 8 cores", runtime.NumCPU())
	}
	dims := []int{128, 128, 128}
	data := make([]float32, dims[0]*dims[1]*dims[2])
	for i := range data {
		data[i] = float32(math.Sin(float64(i%dims[2])/56) + 0.015*float64((i/dims[2])%dims[1]))
	}
	rawBytes := float64(len(data)) * 4

	throughput := func(workers int) float64 {
		c := NewHandle(workers)
		dst, err := c.Compress(data, dims, 1e-3) // warm lanes and dst
		if err != nil {
			t.Fatal(err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst, err = c.CompressAppend(dst[:0], data, dims, 1e-3)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		return rawBytes * float64(res.N) / res.T.Seconds()
	}

	t1 := throughput(1)
	t8 := throughput(8)
	t.Logf("zfp compress: 1 worker %.1f MB/s, 8 workers %.1f MB/s (%.2fx)", t1/1e6, t8/1e6, t8/t1)
	if t8 < 3*t1 {
		t.Fatalf("8-worker compress is %.2fx the 1-worker throughput; the scaling gate requires >= 3x", t8/t1)
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
