package sz

import (
	"bytes"
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

// TestParallelBytesDeterministic: the compressed stream must be
// byte-identical at every worker count — partition layout is a function of
// shape, never of the worker count.
func TestParallelBytesDeterministic(t *testing.T) {
	data, dims := multiPartField(t)
	const eb = 1e-3

	ref, err := NewHandle(1).Compress(data, dims, eb)
	if err != nil {
		t.Fatal(err)
	}
	for workers := 2; workers <= 8; workers++ {
		got, err := NewHandle(workers).Compress(data, dims, eb)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(ref, got) {
			t.Fatalf("workers=%d: compressed bytes differ from serial (%d vs %d bytes)",
				workers, len(got), len(ref))
		}
	}
}

// TestParallelDecodeEquivalence: a fixed stream decodes to identical values
// and within the error bound at every decoder worker count.
func TestParallelDecodeEquivalence(t *testing.T) {
	data, dims := multiPartField(t)
	const eb = 1e-3

	buf, err := Compress(data, dims, eb)
	if err != nil {
		t.Fatal(err)
	}
	var ref []float32
	for workers := 1; workers <= 8; workers++ {
		out, gotDims, err := NewHandle(workers).Decompress(buf)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(gotDims) != len(dims) || gotDims[0] != dims[0] {
			t.Fatalf("workers=%d: dims %v, want %v", workers, gotDims, dims)
		}
		for i := range data {
			if d := math.Abs(float64(out[i]) - float64(data[i])); d > eb {
				t.Fatalf("workers=%d: element %d error %g > bound %g", workers, i, d, eb)
			}
		}
		if ref == nil {
			ref = out
			continue
		}
		for i := range ref {
			if ref[i] != out[i] {
				t.Fatalf("workers=%d: element %d = %g, serial decode = %g", workers, i, out[i], ref[i])
			}
		}
	}
}

// TestPartitionOverheadBounded: partitioning costs a cold predictor per
// boundary row. The compressed-size regression against a single-partition
// (pre-v3-equivalent) stream must stay under 2%.
func TestPartitionOverheadBounded(t *testing.T) {
	data, dims := multiPartField(t)
	const eb = 1e-3

	parted, err := Compress(data, dims, eb)
	if err != nil {
		t.Fatal(err)
	}
	savedTarget, savedFanout := partTargetElems, partMinFanout
	partTargetElems = 1 << 30 // force one partition
	partMinFanout = 1
	defer func() { partTargetElems, partMinFanout = savedTarget, savedFanout }()
	whole, err := Compress(data, dims, eb)
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

// TestCompressorReuseMatchesOneShot: handle reuse must not change bytes.
func TestCompressorReuseMatchesOneShot(t *testing.T) {
	data, dims := multiPartField(t)
	const eb = 5e-4

	want, err := Compress(data, dims, eb)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandle(0)
	for round := 0; round < 3; round++ {
		got, err := h.Compress(data, dims, eb)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("round %d: reused Handle produced different bytes", round)
		}
		out, _, err := h.Decompress(got)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range data {
			if diff := math.Abs(float64(out[i]) - float64(data[i])); diff > eb {
				t.Fatalf("round %d: element %d error %g > %g", round, i, diff, eb)
			}
		}
	}
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
	if enc.dec32.All() != nil || enc.dec64.All() != nil || enc.payloads != nil {
		t.Fatal("compress-only handle holds decode scratch")
	}
	dec := NewHandle(2)
	if _, _, err := dec.Decompress(buf); err != nil {
		t.Fatal(err)
	}
	if dec.eng32.lanes.All() != nil || dec.eng32.parts != nil || dec.eng64.lanes.All() != nil {
		t.Fatal("decompress-only handle holds encode scratch")
	}
}
