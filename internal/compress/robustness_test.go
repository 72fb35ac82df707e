package compress_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"lcpio/internal/compress"
	"lcpio/internal/container"
)

// Decompressors face untrusted bytes (files on shared storage). These tests
// throw deterministic garbage — random blobs, truncations, streams forged to
// the retired float64 element width and single-bit mutations of valid
// streams — at every registered codec, and at the container layer: whatever is refused
// is refused from the header, before anything near an output is sized, and
// nothing panics.

func mustNotPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s panicked: %v", what, r)
		}
	}()
	fn()
}

// requireRefused holds Decompress and DecompressInto to an error on stream,
// inside 4 KiB. TotalAlloc counts the whole process, so a runtime allocation
// landing in the window reads as the decoder's: the least of three attempts
// is what is held to the budget.
func requireRefused(t *testing.T, h compress.Handle, what string, stream []byte) {
	t.Helper()
	least := ^uint64(0)
	for try := 0; try < 3 && least > 4096; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, errDec := h.Decompress(stream)
		_, _, errInto := h.DecompressInto(nil, stream)
		runtime.ReadMemStats(&after)
		if errDec == nil || errInto == nil {
			t.Fatalf("%s: Decompress err %v, DecompressInto err %v", what, errDec, errInto)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4096 {
		t.Errorf("%s: refusing %d bytes allocated %d", what, len(stream), least)
	}
}

// garbage is 200 deterministic random blobs of up to 4 KiB.
func garbage() [][]byte {
	rng := rand.New(rand.NewSource(1))
	blobs := make([][]byte, 200)
	for i := range blobs {
		blobs[i] = make([]byte, rng.Intn(4096))
		rng.Read(blobs[i])
	}
	return blobs
}

func TestDecompressRandomGarbage(t *testing.T) {
	eachCodec(t, refuseGarbage)
	for _, blob := range garbage() {
		mustNotPanic(t, "container", func() {
			_, _, _ = container.Unpack(blob, container.Options{})
		})
		mustNotPanic(t, "container-stat", func() {
			_, _ = container.Stat(blob)
		})
	}
}

func refuseGarbage(t *testing.T, name string) {
	h := newHandle(t, name, 0)
	for i, blob := range garbage() {
		requireRefused(t, h, fmt.Sprintf("blob %d", i), blob)
	}
}

// widened returns stream with its element-width header word — the third
// u32 of every codec's header — forged to 64, the retired float64 width.
func widened(stream []byte) []byte {
	out := bytes.Clone(stream)
	binary.LittleEndian.PutUint32(out[8:], 64)
	return out
}

// TestDecompressMutatedStreams: every truncation of a valid stream, and the
// stream with its element width forged to 64, is refused; a mutated stream
// may decode — the formats carry no checksums, as the reference codecs
// don't — but only to an array its shape describes.
func TestDecompressMutatedStreams(t *testing.T) { eachCodec(t, mutated) }

func mutated(t *testing.T, name string) {
	rng := rand.New(rand.NewSource(2))
	data := make([]float64, 2000)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	h := newHandle(t, name, 0)
	valid, err := h.CompressAppend(nil, convert(data), []int{2000}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	requireRefused(t, h, "float64-width", widened(valid))
	for _, cut := range []int{0, 1, 8, len(valid) / 10, len(valid) / 2, len(valid) * 9 / 10, len(valid) - 1} {
		requireRefused(t, h, fmt.Sprintf("truncated to %d bytes", cut), valid[:cut])
	}
	for trial := 0; trial < 100; trial++ {
		blob := append([]byte(nil), valid...)
		for m := 0; m < rng.Intn(4)+1; m++ {
			blob[rng.Intn(len(blob))] ^= byte(1 << rng.Intn(8))
		}
		mustNotPanic(t, "mutate", func() {
			if out, dims, err := h.Decompress(blob); err == nil && len(out) != elems(dims) {
				t.Fatalf("decoded %d values for dims %v", len(out), dims)
			}
		})
	}
}

func TestContainerMutatedStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]float32, 4096)
	for i := range data {
		data[i] = float32(i % 97)
	}
	valid, err := container.Pack("sz", data, []int{4096}, 1e-3, container.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		blob := append([]byte(nil), valid...)
		blob[rng.Intn(len(blob))] ^= byte(1 << rng.Intn(8))
		mustNotPanic(t, "container-mutate", func() {
			_, _, _ = container.Unpack(blob, container.Options{})
		})
	}
}
