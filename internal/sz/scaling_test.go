package sz

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"testing"
)

// matrixField is a mid-sized field used by the worker x granularity matrix:
// large enough that every granularity under test yields multiple partitions.
func matrixField() ([]float32, []int) {
	dims := []int{6, 128, 128}
	data := make([]float32, dims[0]*dims[1]*dims[2])
	for i := range data {
		x := float64(i%dims[2]) / 48
		y := float64((i / dims[2]) % dims[1])
		data[i] = float32(math.Sin(x)*1.5 + 0.02*y + 0.4*math.Cos(float64(i)/513))
	}
	return data, dims
}

// TestByteIdentityMatrix sweeps worker counts against partition
// granularities: within a granularity the compressed bytes and the decoded
// values must be identical at every worker count — parallelism is pure
// execution policy. Across granularities only the error bound is shared
// (partition boundaries reset the predictor, so reconstructions differ).
func TestByteIdentityMatrix(t *testing.T) {
	data, dims := matrixField()
	const eb = 1e-3
	workerCounts := []int{1, 2, 3, 5, 8}

	savedTarget := partTargetElems
	defer func() { partTargetElems = savedTarget }()

	for _, target := range []int{1 << 12, 1 << 14, 1 << 16} {
		partTargetElems = target
		_, spans := partitionPlan(dims, nil)
		if len(spans) < 2 {
			t.Fatalf("target=%d: plan yields %d partition(s); matrix needs fan-out", target, len(spans))
		}

		var refStream []byte
		for _, workers := range workerCounts {
			got, err := NewHandle(workers).Compress(data, dims, eb)
			if err != nil {
				t.Fatalf("target=%d workers=%d: %v", target, workers, err)
			}
			if refStream == nil {
				refStream = got
				continue
			}
			if !bytes.Equal(refStream, got) {
				t.Fatalf("target=%d workers=%d: compressed bytes differ from workers=%d",
					target, workers, workerCounts[0])
			}
		}

		var refOut []float32
		for _, workers := range workerCounts {
			out, _, err := NewHandle(workers).Decompress(refStream)
			if err != nil {
				t.Fatalf("target=%d workers=%d: decompress: %v", target, workers, err)
			}
			if refOut == nil {
				refOut = out
				for i := range data {
					if d := math.Abs(float64(out[i]) - float64(data[i])); d > eb {
						t.Fatalf("target=%d: element %d error %g > bound %g", target, i, d, eb)
					}
				}
				continue
			}
			for i := range refOut {
				if refOut[i] != out[i] {
					t.Fatalf("target=%d workers=%d: decoded element %d differs across worker counts",
						target, workers, i)
				}
			}
		}
	}
}

// minAllocsPerRun is the steady-state allocation count of f: the minimum of
// five single-run AllocsPerRun measurements. A GC between iterations empties
// the codec's sync.Pools and the refills inflate whichever measurement it
// lands in, so one averaged reading flakes under a loaded suite run; a real
// regression raises every reading, and so the minimum too.
func minAllocsPerRun(f func()) float64 {
	lo := testing.AllocsPerRun(1, f)
	for i := 0; i < 4; i++ {
		lo = min(lo, testing.AllocsPerRun(1, f))
	}
	return lo
}

// TestCompressAllocsSteadyAcrossWorkers is the alloc-regression gate for the
// historical 8-worker blow-up (25 -> 191 allocs/op at the seed): with a warm
// Handle and a reused destination buffer, raising the worker count may
// only add the per-run goroutine fan-out machinery, not per-partition
// scratch.
func TestCompressAllocsSteadyAcrossWorkers(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime bookkeeping inflates alloc counts")
	}
	data, dims := multiPartField(t)
	const eb = 1e-3

	measure := func(workers int) float64 {
		c := NewHandle(workers)
		var dst []byte
		var err error
		dst, err = c.Compress(data, dims, eb) // warm: size all lanes and dst
		if err != nil {
			t.Fatal(err)
		}
		return minAllocsPerRun(func() {
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

// TestDecompressAllocsSteadyAcrossWorkers is the decode row of the pin above:
// a warm Handle allocates its output and little else. The lossless
// stage's two Huffman codes, their decode tables and the table-length
// scratch come from a pool, so the count no longer grows with the number of
// partitions (it was ~10 per partition, 163 on this 16-partition field).
func TestDecompressAllocsSteadyAcrossWorkers(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime bookkeeping inflates alloc counts")
	}
	data, dims := multiPartField(t)
	buf, err := Compress(data, dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}

	measure := func(workers int) float64 {
		d := NewHandle(workers)
		if _, _, err := d.Decompress(buf); err != nil { // warm: size all lanes
			t.Fatal(err)
		}
		return minAllocsPerRun(func() {
			if _, _, err := d.Decompress(buf); err != nil {
				t.Fatal(err)
			}
		})
	}

	a1 := measure(1)
	a8 := measure(8)
	if a1 > 32 {
		t.Fatalf("1-worker warm decompress allocates %.0f times/op; want <= 32 (per-partition tables must be pooled)", a1)
	}
	if a8 > 128 {
		t.Fatalf("8-worker warm decompress allocates %.0f times/op; want <= 128", a8)
	}
}

// TestScalingGate is the CI scaling gate invoked by scripts/check.sh: on a
// host with at least 8 cores, 8-worker compression must run at >= 3x the
// 1-worker throughput. It is opt-in via LCPIO_SCALING_GATE because wall-time
// throughput assertions are meaningless on loaded or narrow machines.
func TestScalingGate(t *testing.T) {
	if os.Getenv("LCPIO_SCALING_GATE") == "" {
		t.Skip("scaling gate is opt-in: set LCPIO_SCALING_GATE=1 (scripts/check.sh does)")
	}
	if runtime.NumCPU() < 8 {
		t.Skipf("host has %d CPUs; the 8-worker >= 3x gate needs 8 cores", runtime.NumCPU())
	}
	dims := []int{8, 512, 512}
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
	t.Logf("sz compress: 1 worker %.1f MB/s, 8 workers %.1f MB/s (%.2fx)", t1/1e6, t8/1e6, t8/t1)
	if t8 < 3*t1 {
		t.Fatalf("8-worker compress is %.2fx the 1-worker throughput; the scaling gate requires >= 3x", t8/t1)
	}
}

// TestCompressOccupancyParallelFanOut is the flip side of the
// single-partition occupancy test: with enough partitions for every lane,
// the pipeline trace must show all stages fanned out across the partitions.
// The serialized-share bound is only meaningful with real cores under the
// workers, so it is gated on the host CPU count.
func TestCompressOccupancyParallelFanOut(t *testing.T) {
	r := installObs(t)

	data, dims := multiPartField(t)
	_, spans := partitionPlan(dims, nil)
	if _, err := NewHandle(8).Compress(data, dims, 1e-3); err != nil {
		t.Fatal(err)
	}

	snap := r.Snapshot()
	p, ok := snap.Pipelines["sz.compress"]
	if !ok {
		t.Fatal("sz.compress pipeline missing from snapshot")
	}
	if p.Workers != 8 {
		t.Fatalf("pipeline workers = %d, want 8", p.Workers)
	}
	for _, stage := range []string{"predict_quantize", "huffman_build", "huffman_encode", "lossless"} {
		st := p.Stages[stage]
		if st.Items != int64(len(spans)) {
			t.Fatalf("stage %q processed %d items, want one per partition (%d)", stage, st.Items, len(spans))
		}
	}
	if runtime.NumCPU() < 8 {
		t.Skipf("host has %d CPUs; the serialized-share bound needs 8 cores under the 8 workers", runtime.NumCPU())
	}
	// On >= 8 real cores a fanned-out dim=256-class run must not let any
	// single stage occupy half the wall.
	dims = []int{256, 256, 256}
	big := make([]float32, dims[0]*dims[1]*dims[2])
	for i := range big {
		big[i] = float32(math.Sin(float64(i%dims[2])/64) + 0.01*float64((i/dims[2])%dims[1]))
	}
	r2 := installObs(t)
	if _, err := NewHandle(8).Compress(big, dims, 1e-3); err != nil {
		t.Fatal(err)
	}
	p2, ok := r2.Snapshot().Pipelines["sz.compress"]
	if !ok {
		t.Fatal("sz.compress pipeline missing from dim=256 snapshot")
	}
	if p2.SerializedShare >= 0.5 {
		t.Fatalf("serialized stage %q holds %.0f%% of the wall on an 8-wide dim=256 run; want < 50%%",
			p2.SerializedStage, 100*p2.SerializedShare)
	}
}
