package sz

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"lcpio/internal/obs"
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

// oddPlanField is a smooth field of the given shape whose plan at
// partTargetElems = 1<<12 has an odd partition count and a short last span,
// so a one-worker compression pairs all but the last partition and runs that
// one alone.
func oddPlanField(t *testing.T, dims []int) []float32 {
	t.Helper()
	n := 1
	for _, d := range dims {
		n *= d
	}
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(math.Sin(float64(i%dims[len(dims)-1])/17) + 0.3*math.Cos(float64(i)/211))
	}
	_, spans := partitionPlan(dims, nil)
	last := spans[len(spans)-1]
	if len(spans)%2 == 0 || last.hi-last.lo >= spans[0].hi-spans[0].lo {
		t.Fatalf("%v: plan %v wants an odd partition count and a short last span", dims, spans)
	}
	return data
}

// alonePayloads is every partition of data's plan compressed on its own
// through quantize3D, the single-partition path, in index order.
func alonePayloads(data []float32, dims []int, eb float64) [][]byte {
	splitDepth, spans := partitionPlan(dims, nil)
	rowElems := len(data)
	for _, d := range dims[:splitDepth] {
		rowElems /= d
	}
	var lane laneScratch
	out := make([][]byte, len(spans))
	for i, s := range spans {
		var p partOut
		lane.pdims = partDims(dims, splitDepth, s.hi-s.lo, lane.pdims)
		compressPartition(&lane, &p, nil, obs.Span{}, data[s.lo*rowElems:s.hi*rowElems], eb)
		out[i] = p.payload
	}
	return out
}

// TestByteIdentityMatrix sweeps worker counts against partition
// granularities the compress suite cannot set: within a granularity the
// compressed bytes and the decoded values are identical at every worker
// count — parallelism is pure execution policy — and every partition's
// payload is the one it gets compressed alone, so pairing partitions into one
// quantize pass is too. The sweep covers the matrix field at three
// granularities, and a 2-D and a 3-D field whose plan ends on an odd, short
// partition. Across granularities only the error bound is shared (partition
// boundaries reset the predictor, so reconstructions differ).
func TestByteIdentityMatrix(t *testing.T) {
	savedTarget := partTargetElems
	defer func() { partTargetElems = savedTarget }()
	type tc struct {
		name   string
		target int
		field  func() ([]float32, []int)
	}
	var cases []tc
	for _, target := range []int{1 << 12, 1 << 14, 1 << 16} {
		cases = append(cases, tc{fmt.Sprintf("target=%d", target), target, matrixField})
	}
	for _, dims := range [][]int{{11, 1000}, {5, 48, 40}} {
		cases = append(cases, tc{fmt.Sprintf("odd plan %v", dims), 1 << 12, func() ([]float32, []int) {
			return oddPlanField(t, dims), dims
		}})
	}
	for _, c := range cases {
		partTargetElems = c.target
		data, dims := c.field()
		if _, spans := partitionPlan(dims, nil); len(spans) < 2 {
			t.Fatalf("%s: plan yields %d partition(s); matrix needs fan-out", c.name, len(spans))
		}
		t.Run(c.name, func(t *testing.T) {
			stream, decoded := oneShot(t, data, dims)
			got := partitionPayloads(t, stream)
			for i, p := range alonePayloads(data, dims, 1e-3) {
				if !bytes.Equal(got[i], p) {
					t.Fatalf("partition %d: payload differs from the partition compressed alone", i)
				}
			}
			matches(t, stream, func(w int) ([]byte, error) { return NewHandle(w).Compress(data, dims, 1e-3) })
			matches(t, decoded, func(w int) ([]byte, error) {
				out, _, err := NewHandle(w).Decompress(stream)
				return bitsOf(out), err
			})
		})
	}
}

// allocsAt is the allocation count of one warm 8-worker call of op on
// multiPartField cut into partitions of target elements: the least of five
// single-run readings, since a GC between runs empties the codec's pools.
func allocsAt(t *testing.T, target int, op func(h *Handle, data []float32, dims []int, stream []byte) ([]byte, error)) float64 {
	saved := partTargetElems
	partTargetElems = target
	defer func() { partTargetElems = saved }()
	data, dims := multiPartField(t)
	h := NewHandle(8)
	stream, err := h.Compress(data, dims, 1e-3)
	if err == nil {
		stream, err = op(h, data, dims, stream) // warm: size every lane
	}
	if err != nil {
		t.Fatal(err)
	}
	least := math.Inf(1)
	for i := 0; i < 5; i++ {
		least = min(least, testing.AllocsPerRun(1, func() { stream, _ = op(h, data, dims, stream) }))
	}
	return least
}

// TestCompressAllocsSteadyAcrossWorkers is the alloc-regression gate for the
// historical 8-worker blow-up (25 -> 191 allocs/op at the seed): the compress
// suite pins a warm handle's count per call; here, at 8 workers, the count is
// the same whether the field is cut into 16 partitions or 96 — compress
// scratch is per lane, never per partition.
func TestCompressAllocsSteadyAcrossWorkers(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime bookkeeping inflates alloc counts")
	}
	compress := func(h *Handle, data []float32, dims []int, stream []byte) ([]byte, error) {
		return h.CompressAppend(stream[:0], data, dims, 1e-3)
	}
	if coarse, fine := allocsAt(t, partTargetElems, compress), allocsAt(t, 1<<14, compress); fine != coarse {
		t.Fatalf("warm 8-worker compress allocates %.0f times on 96 partitions, %.0f on 16", fine, coarse)
	}
}

// TestDecompressAllocsSteadyAcrossWorkers is the decode row of the pin above.
// The lossless stage's two Huffman codes, their decode tables and the
// table-length scratch come from a pool, so the count no longer grows with
// the number of partitions (it was ~10 per partition, 163 on 16 partitions).
func TestDecompressAllocsSteadyAcrossWorkers(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime bookkeeping inflates alloc counts")
	}
	var out []float32
	decompress := func(h *Handle, _ []float32, _ []int, stream []byte) ([]byte, error) {
		var err error
		out, _, err = h.DecompressInto(out, stream)
		return stream, err
	}
	if coarse, fine := allocsAt(t, partTargetElems, decompress), allocsAt(t, 1<<14, decompress); fine != coarse {
		t.Fatalf("warm 8-worker decompress allocates %.0f times on 96 partitions, %.0f on 16", fine, coarse)
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
