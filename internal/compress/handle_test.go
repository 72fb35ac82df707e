package compress_test

import (
	"bytes"
	"math"
	"testing"

	"lcpio/internal/compress"
	"lcpio/internal/sz"
	"lcpio/internal/zfp"
)

// The codec types are the handles: no adapter sits between a codec package
// and the registry.
var (
	_ compress.Handle = (*sz.Handle)(nil)
	_ compress.Handle = (*zfp.Handle)(nil)
)

// handleField is large enough that sz and zfp split it into several
// partitions and shards, so the worker count has something to reorder.
func handleField() ([]float32, []int) {
	data := make([]float32, 48*64*64)
	for i := range data {
		data[i] = float32(math.Sin(float64(i)/37) + 0.2*math.Cos(float64(i/64)/11))
	}
	return data, []int{48, 64, 64}
}

// TestHandleMatchesGoldens: the worker count is execution policy only, and
// the handle NewHandle returns is the codec the goldens pin. At 1, 2 and 8
// workers, on every reuse, its Compress and CompressAppend write the stream
// of the codec package's own fresh handle on all cores (which sz and zfp hold
// to the committed streams in their own TestHandleMatchesGoldens, where the
// recorded partition granularity can be set) and its Decompress reads it back
// to the same bits. That every committed stream decodes to its committed image
// is TestDecompressIntoMatchesGoldens.
func TestHandleMatchesGoldens(t *testing.T) {
	oneShot := map[string]func([]float32, []int, float64) ([]byte, error){
		"sz":  sz.NewHandle(0).Compress,
		"zfp": zfp.NewHandle(0).Compress,
	}
	eachCodec(t, func(t *testing.T, name string) { identical(t, name, oneShot[name]) })
}

func identical(t *testing.T, name string, oneShot func([]float32, []int, float64) ([]byte, error)) {
	data, dims := handleField()
	const eb = 1e-3
	want, err := oneShot(data, dims, eb)
	if err != nil {
		t.Fatal(err)
	}
	wantOut, _, err := newHandle(t, name, 1).Decompress(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		h := newHandle(t, name, workers)
		for round := 0; round < 3; round++ {
			fresh, err := h.Compress(data, dims, eb)
			if err != nil || !bytes.Equal(fresh, want) {
				t.Fatalf("workers=%d round %d Compress: err %v, or bytes differ from the fresh handle's", workers, round, err)
			}
			appended, err := h.CompressAppend([]byte("pre"), data, dims, eb)
			if err != nil || !bytes.Equal(appended, append([]byte("pre"), want...)) {
				t.Fatalf("workers=%d round %d CompressAppend: err %v, or bytes differ", workers, round, err)
			}
			out, _, err := h.Decompress(want)
			if err != nil || !bytes.Equal(bitsOf(out), bitsOf(wantOut)) {
				t.Fatalf("workers=%d round %d: err %v, or decoded bits differ from one worker's", workers, round, err)
			}
		}
	}
}
