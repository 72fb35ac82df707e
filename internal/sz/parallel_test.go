package sz

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
)

// multiPartField returns a field large enough to span several partitions, so
// the parallel engine actually fans out. dims[0]=6 is deliberately smaller
// than partMinFanout: the adaptive plan must descend past the slowest
// dimension (splitDepth 2) to reach full fan-out.
func multiPartField(t *testing.T) ([]float32, []int) {
	t.Helper()
	dims := []int{6, 512, 512}
	data := make([]float32, dims[0]*dims[1]*dims[2])
	for i := range data {
		x := float64(i%dims[2]) / 64
		y := float64((i / dims[2]) % dims[1])
		data[i] = float32(math.Sin(x) + 0.01*y + 0.3*math.Cos(float64(i)/999))
	}
	depth, spans := partitionPlan(dims, nil)
	if len(spans) < partMinFanout {
		t.Fatalf("test field only spans %d partition(s); want >= %d", len(spans), partMinFanout)
	}
	if depth < 2 {
		t.Fatalf("splitDepth = %d; this field needs the plan to split past dims[0]", depth)
	}
	return data, dims
}

// The compress suite holds byte identity across workers and reuse, and
// DecompressInto against Decompress, on its own field; the tests below hold
// them where sz's plan is known to split past dims[0] into a full fan-out.

// matches holds got's bytes at 1 to 8 workers to want.
func matches(t *testing.T, want []byte, got func(workers int) ([]byte, error)) {
	t.Helper()
	for workers := 1; workers <= 8; workers++ {
		if b, err := got(workers); err != nil || !bytes.Equal(b, want) {
			t.Fatalf("workers=%d: err %v, or the bytes differ from the one-shot's", workers, err)
		}
	}
}

// oneShot is data's stream at 1e-3 from a fresh all-core handle (one shot,
// cold scratch) and the stream's decoded bits.
func oneShot(t *testing.T, data []float32, dims []int) (stream, decoded []byte) {
	h := NewHandle(0)
	stream, err := h.Compress(data, dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := h.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	return stream, bitsOf(out)
}

// fannedOut is multiPartField, its one-shot stream and decoded bits.
func fannedOut(t *testing.T) (data []float32, dims []int, stream, decoded []byte) {
	data, dims = multiPartField(t)
	stream, decoded = oneShot(t, data, dims)
	return data, dims, stream, decoded
}

// TestParallelBytesDeterministic: the stream is the same at every worker
// count — partition layout is a function of shape only.
func TestParallelBytesDeterministic(t *testing.T) {
	data, dims, stream, _ := fannedOut(t)
	matches(t, stream, func(w int) ([]byte, error) { return NewHandle(w).Compress(data, dims, 1e-3) })
}

// TestParallelDecodeEquivalence: one stream decodes to the same bits at every
// decoder worker count, and to the two-pass reference's, whichever
// partitions share a paired pass: the fanned-out field's 16 partitions run as
// 8 pairs at 1 to 3 workers and as none at 16; three partitions of 8,192
// elements run as one pair and one alone; and a short last partition, odd or
// the second of a pair, always runs alone. The small plans are cut from the
// same values as 3-D, 2-D and 1-D arrays.
func TestParallelDecodeEquivalence(t *testing.T) {
	data, _, stream, decoded := fannedOut(t)
	matches(t, decoded, func(w int) ([]byte, error) {
		out, _, err := NewHandle(w).Decompress(stream)
		return bitsOf(out), err
	})

	streams := map[string][]byte{"fanned-out field": stream}
	saved := partTargetElems
	defer func() { partTargetElems = saved }()
	partTargetElems = 2 * 64 * 64
	for _, slabs := range []int{5, 6, 7} {
		for _, dims := range [][]int{{slabs, 64, 64}, {slabs * 64, 64}, {slabs * 64 * 64}} {
			s, err := NewHandle(0).Compress(data[:slabs*64*64], dims, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			streams[fmt.Sprintf("%v in partitions of 8192", dims)] = s
		}
	}
	for what, s := range streams {
		want, err := refDecompress(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 3, 16} {
			got, _, err := NewHandle(w).Decompress(s)
			if err != nil || !sameBits(got, want) {
				t.Fatalf("%s at %d workers: err %v, or the bits differ from the reference's", what, w, err)
			}
		}
	}
}

// TestDecompressIntoMatchesGoldens: every partition decodes straight into its
// own slice of a NaN-poisoned dst.
func TestDecompressIntoMatchesGoldens(t *testing.T) {
	data, _, stream, decoded := fannedOut(t)
	dst := make([]float32, len(data))
	matches(t, decoded, func(w int) ([]byte, error) {
		for i := range dst {
			dst[i] = float32(math.NaN())
		}
		out, _, err := NewHandle(w).DecompressInto(dst, stream)
		if err == nil && &out[0] != &dst[0] {
			err = errors.New("decoded outside dst")
		}
		return bitsOf(dst), err
	})
}

// TestPartitionOverheadBounded: partitioning costs a cold predictor per
// boundary row. The compressed-size regression against a single-partition
// (pre-v3-equivalent) stream must stay under 2%.
func TestPartitionOverheadBounded(t *testing.T) {
	data, dims := multiPartField(t)
	const eb = 1e-3

	parted, err := NewHandle(0).Compress(data, dims, eb)
	if err != nil {
		t.Fatal(err)
	}
	savedTarget, savedFanout := partTargetElems, partMinFanout
	partTargetElems = 1 << 30 // force one partition
	partMinFanout = 1
	defer func() { partTargetElems, partMinFanout = savedTarget, savedFanout }()
	whole, err := NewHandle(0).Compress(data, dims, eb)
	if err != nil {
		t.Fatal(err)
	}
	if _, spans := partitionPlan(dims, nil); len(spans) != 1 {
		t.Fatal("expected a single partition with partTargetElems raised")
	}
	if float64(len(parted)) > 1.02*float64(len(whole)) {
		t.Fatalf("partitioned stream %d bytes vs single-partition %d: regression > 2%%",
			len(parted), len(whole))
	}
}

// TestCompressorReuseMatchesOneShot: a reused all-core handle writes the
// one-shot stream on each of eight rounds.
func TestCompressorReuseMatchesOneShot(t *testing.T) {
	data, dims, stream, _ := fannedOut(t)
	h := NewHandle(0)
	matches(t, stream, func(int) ([]byte, error) { return h.Compress(data, dims, 1e-3) })
}

// TestHandleScratchLazyPerDirection: one handle owns both directions, but a
// dump-only client must not pay for decode lanes, nor a restore-only client
// for encode lanes.
func TestHandleScratchLazyPerDirection(t *testing.T) {
	data, dims := multiPartField(t)
	enc := NewHandle(2)
	buf, err := enc.Compress(data, dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if enc.dec.All() != nil || enc.payloads != nil {
		t.Fatal("compress-only handle holds decode scratch")
	}
	dec := NewHandle(2)
	if _, _, err := dec.Decompress(buf); err != nil {
		t.Fatal(err)
	}
	if dec.lanes.All() != nil || dec.parts != nil {
		t.Fatal("decompress-only handle holds encode scratch")
	}
}
