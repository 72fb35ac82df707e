package compress_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lcpio/internal/compress"
	"lcpio/internal/squant"
	"lcpio/internal/sz"
	"lcpio/internal/zfp"
)

// The codec types are the handles: no adapter sits between a codec package
// and the registry.
var (
	_ compress.Handle = (*sz.Handle)(nil)
	_ compress.Handle = (*zfp.Handle)(nil)
	_ compress.Handle = squant.Handle{}
)

// handleField is large enough that sz and zfp split it into several
// partitions and shards, so the worker count has something to reorder.
func handleField() ([]float32, []float64, []int) {
	dims := []int{48, 64, 64}
	f32 := make([]float32, 48*64*64)
	f64 := make([]float64, len(f32))
	for i := range f32 {
		v := math.Sin(float64(i)/37) + 0.2*math.Cos(float64(i/64)/11)
		f32[i], f64[i] = float32(v), v
	}
	return f32, f64, dims
}

// TestHandleMatchesGoldens: the handle NewHandle returns is the codec the
// goldens pin, at every worker count. Its Compress, CompressAppend and
// Compress64 bytes equal the codec package's one-shot (which sz and zfp hold
// to the committed order-1 / fixed-accuracy streams in their own
// TestHandleMatchesGoldens, where the recorded partition granularity can be
// set), and its Decompress reproduces every committed decoded image.
func TestHandleMatchesGoldens(t *testing.T) {
	f32, f64, dims := handleField()
	const eb = 1e-3
	oneShot := map[string]struct {
		c32 func([]float32, []int, float64) ([]byte, error)
		c64 func([]float64, []int, float64) ([]byte, error)
	}{
		"sz":     {sz.Compress, sz.Compress64},
		"zfp":    {zfp.Compress, zfp.Compress64},
		"squant": {squant.Compress, squant.Compress64},
	}
	for _, name := range compress.Names() {
		want32, err := oneShot[name].c32(f32, dims, eb)
		if err != nil {
			t.Fatal(err)
		}
		want64, err := oneShot[name].c64(f64, dims, eb)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			h, err := compress.NewHandle(name, workers)
			if err != nil {
				t.Fatal(err)
			}
			got, err := h.Compress(f32, dims, eb)
			if err != nil || !bytes.Equal(got, want32) {
				t.Fatalf("%s workers=%d Compress: err %v, bytes equal %v", name, workers, err, bytes.Equal(got, want32))
			}
			got, err = h.CompressAppend([]byte("pre"), f32, dims, eb)
			if err != nil || !bytes.Equal(got, append([]byte("pre"), want32...)) {
				t.Fatalf("%s workers=%d CompressAppend: err %v or bytes differ", name, workers, err)
			}
			got, err = h.Compress64(f64, dims, eb)
			if err != nil || !bytes.Equal(got, want64) {
				t.Fatalf("%s workers=%d Compress64: err %v, bytes equal %v", name, workers, err, bytes.Equal(got, want64))
			}
			got, err = h.CompressAppend64([]byte("pre"), f64, dims, eb)
			if err != nil || !bytes.Equal(got, append([]byte("pre"), want64...)) {
				t.Fatalf("%s workers=%d CompressAppend64: err %v or bytes differ", name, workers, err)
			}
		}
	}

	decoded := 0
	for _, g := range []struct{ codec, glob string }{
		{"sz", "../sz/testdata/golden_*.szs"},
		{"zfp", "../zfp/testdata/golden_*.zfs"},
	} {
		paths, _ := filepath.Glob(g.glob)
		for _, path := range paths {
			recon, err := os.ReadFile(path[:len(path)-len(filepath.Ext(path))] + ".recon")
			if os.IsNotExist(err) {
				continue // a retired configuration: no image, the codec tests pin its refusal
			}
			if err != nil {
				t.Fatal(err)
			}
			stream, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// recon layout: uint32 ndims, ndims x uint64 dims, raw element bits.
			nd := int(binary.LittleEndian.Uint32(recon))
			wantBits := recon[4+8*nd:]
			for _, workers := range []int{1, 2, 8} {
				h, _ := compress.NewHandle(g.codec, workers)
				var gotBits []byte
				if strings.Contains(path, ".f64.") {
					out, _, err := h.Decompress64(stream)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", path, workers, err)
					}
					for _, v := range out {
						gotBits = binary.LittleEndian.AppendUint64(gotBits, math.Float64bits(v))
					}
				} else {
					out, _, err := h.Decompress(stream)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", path, workers, err)
					}
					for _, v := range out {
						gotBits = binary.LittleEndian.AppendUint32(gotBits, math.Float32bits(v))
					}
				}
				if !bytes.Equal(gotBits, wantBits) {
					t.Fatalf("%s workers=%d: decoded image differs from the committed one", path, workers)
				}
				decoded++
			}
		}
	}
	if decoded != 3*(5+5) {
		t.Fatalf("decoded %d golden images, want 5 sz + 5 zfp at three worker counts", decoded)
	}
}
