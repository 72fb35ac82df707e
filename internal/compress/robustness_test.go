package compress_test

import (
	"math/rand"
	"testing"

	"lcpio/internal/compress"
	"lcpio/internal/container"
)

// Decompressors face untrusted bytes (files on shared storage); they must
// return errors, never panic, on arbitrary input. These tests throw
// deterministic garbage — random blobs, truncations, and single-bit
// mutations of valid streams — at every registered codec and the container
// layer.

func mustNotPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s panicked: %v", what, r)
		}
	}()
	fn()
}

func TestDecompressRandomGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		blob := make([]byte, rng.Intn(4096))
		rng.Read(blob)
		for _, name := range compress.Names() {
			codec, _ := compress.NewHandle(name, 0)
			mustNotPanic(t, name, func() {
				_, _, _ = codec.Decompress(blob)
			})
		}
		mustNotPanic(t, "container", func() {
			_, _, _ = container.Unpack(blob, container.Options{})
		})
		mustNotPanic(t, "container-stat", func() {
			_, _ = container.Stat(blob)
		})
	}
}

func TestDecompressMutatedStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]float32, 2000)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	for _, name := range compress.Names() {
		codec, _ := compress.NewHandle(name, 0)
		valid, err := codec.Compress(data, []int{2000}, 1e-3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Truncations at every length decile.
		for cut := 0; cut <= 10; cut++ {
			blob := valid[:len(valid)*cut/10]
			mustNotPanic(t, name+"-trunc", func() {
				_, _, _ = codec.Decompress(blob)
			})
		}
		// Byte mutations scattered over the stream.
		for trial := 0; trial < 100; trial++ {
			blob := append([]byte(nil), valid...)
			for m := 0; m < rng.Intn(4)+1; m++ {
				blob[rng.Intn(len(blob))] ^= byte(1 << rng.Intn(8))
			}
			mustNotPanic(t, name+"-mutate", func() {
				out, dims, err := codec.Decompress(blob)
				// The formats carry no checksums (as the reference codecs
				// don't), so a header mutation may decode to a different
				// shape — but whatever decodes must be self-consistent.
				if err == nil {
					n := 1
					for _, d := range dims {
						n *= d
					}
					if len(out) != n {
						t.Fatalf("%s: decoded %d values for dims %v", name, len(out), dims)
					}
				}
			})
		}
	}
}

func TestContainerMutatedStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]float32, 4096)
	for i := range data {
		data[i] = float32(i % 97)
	}
	valid, err := container.Pack("sz", data, []int{4096}, 1e-3, container.Options{ChunkElems: 512})
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
