package zfp

import (
	"bytes"
	"errors"
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

// The compress suite holds byte identity across workers and reuse, and
// DecompressInto against Decompress, on its own field; the tests below hold
// them where zfp's plan is known to fan out into a full set of shards.

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

// fannedOut is multiShardField, its one-shot stream and decoded bits.
func fannedOut(t *testing.T) (data []float32, dims []int, stream, decoded []byte) {
	data, dims = multiShardField(t)
	stream, decoded = oneShot(t, data, dims)
	return data, dims, stream, decoded
}

// TestParallelBytesDeterministic: the stream is the same at every worker
// count — the shard layout depends only on the block grid.
func TestParallelBytesDeterministic(t *testing.T) {
	data, dims, stream, _ := fannedOut(t)
	matches(t, stream, func(w int) ([]byte, error) { return NewHandle(w).Compress(data, dims, 1e-3) })
}

// TestParallelDecodeEquivalence: one stream decodes to the same bits at every
// decoder worker count.
func TestParallelDecodeEquivalence(t *testing.T) {
	_, _, stream, decoded := fannedOut(t)
	matches(t, decoded, func(w int) ([]byte, error) {
		out, _, err := NewHandle(w).Decompress(stream)
		return bitsOf(out), err
	})
}

// TestDecompressIntoMatchesGoldens: every shard decodes straight into its
// blocks of a NaN-poisoned dst.
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
	data, dims := multiShardField(t)
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
