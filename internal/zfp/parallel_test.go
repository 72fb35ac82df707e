package zfp

import (
	"bytes"
	"math"
	"testing"

	"lcpio/internal/wire"
)

// multiShardField returns a field whose block grid the adaptive plan splits
// into a full fan-out of shards, so fixed-accuracy streams exercise the
// parallel shard machinery.
func multiShardField(t *testing.T) ([]float32, []int) {
	t.Helper()
	dims := []int{68, 64, 64} // 17*16*16 = 4352 blocks
	data := make([]float32, dims[0]*dims[1]*dims[2])
	for i := range data {
		x := float64(i%dims[2]) / 32
		z := float64(i / (dims[1] * dims[2]))
		data[i] = float32(math.Cos(x)*2 + 0.05*z + 0.2*math.Sin(float64(i)/777))
	}
	dim, d0, d1, d2 := wire.Collapse(dims)
	nb0, nb1, nb2 := blockGrid(d0, d1, d2, dim)
	if _, numShards := shardPlan(nb0 * nb1 * nb2); numShards < shardMinFanout {
		t.Fatalf("test field plans %d shard(s); want >= %d for a multi-shard stream",
			numShards, shardMinFanout)
	}
	return data, dims
}

// TestParallelBytesDeterministic: fixed-accuracy output must be
// byte-identical at every worker count — the shard layout depends only on
// the block grid.
func TestParallelBytesDeterministic(t *testing.T) {
	data, dims := multiShardField(t)
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

// TestParallelDecodeEquivalence: one fixed stream decodes to identical
// values, within the bound, at every decoder worker count.
func TestParallelDecodeEquivalence(t *testing.T) {
	data, dims := multiShardField(t)
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

// TestCompressorReuseMatchesOneShot: handle reuse must not change bytes.
func TestCompressorReuseMatchesOneShot(t *testing.T) {
	data, dims := multiShardField(t)
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
	data, dims := multiShardField(t)
	enc := NewHandle(2)
	buf, err := enc.Compress(data, dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if enc.d32.All() != nil || enc.d64.All() != nil || enc.payloads != nil {
		t.Fatal("compress-only handle holds decode scratch")
	}
	dec := NewHandle(2)
	if _, _, err := dec.Decompress(buf); err != nil {
		t.Fatal(err)
	}
	if dec.e32.lanes.All() != nil || dec.e32.parts != nil || dec.e64.lanes.All() != nil {
		t.Fatal("decompress-only handle holds encode scratch")
	}
}
