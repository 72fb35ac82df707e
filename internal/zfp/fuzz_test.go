package zfp

import (
	"os"
	"path/filepath"
	"testing"

	"lcpio/internal/wire"
)

// FuzzDecompress drives the decoder with corrupted streams and streams
// forged to the retired mode words. Contract: coherent output or an error — never a panic, and never an
// output allocation the payload could not plausibly back (each block costs at
// least its tag bits, checked before the slice is sized from header dims).
func FuzzDecompress(f *testing.F) {
	data := make([]float32, 8*8*8)
	for i := range data {
		data[i] = float32(i%23)*0.5 - 4
	}
	dims := []int{8, 8, 8}

	h := NewHandle(0)
	acc, err := h.Compress(data, dims, 1e-3)
	if err != nil {
		f.Fatal(err)
	}
	rate := forgeMode(acc, 1) // the retired fixed-rate mode word
	prec := forgeMode(acc, 2) // the retired fixed-precision mode word
	d64 := make([]float64, 32)
	for i := range d64 {
		d64[i] = float64(i) * 1.5
	}
	acc64, err := h.Compress64(d64, []int{32}, 1e-6)
	if err != nil {
		f.Fatal(err)
	}

	f.Add([]byte(nil))
	f.Add(acc[:4]) // magic only
	f.Add(acc)
	f.Add(rate)
	f.Add(prec)
	f.Add(acc64)
	// Truncations: mid-header, mid-shard-index, mid-payload.
	for _, cut := range []int{1, 8, 16, 24, 40, 48, 56, len(acc) / 2, len(acc) - 1} {
		if cut < len(acc) {
			f.Add(acc[:cut])
		}
	}
	// Bit flips over the header, the shard count / shard length index, and
	// payload bytes.
	for _, pos := range []int{4, 5, 9, 13, 21, 41, 45, 49, 53, 57, len(acc) - 2} {
		if pos < len(acc) {
			c := append([]byte(nil), acc...)
			c[pos] ^= 0x20
			f.Add(c)
		}
	}
	for _, pos := range []int{9, 45, len(rate) - 1} {
		if pos < len(rate) {
			c := append([]byte(nil), rate...)
			c[pos] ^= 0x08
			f.Add(c)
		}
	}

	// Pinned golden streams (both precisions, the retired modes, and ones
	// written by older encoders with fixed-size shards), so decoder
	// back-compat stays in the corpus as the encoder evolves.
	goldens, _ := filepath.Glob(filepath.Join("testdata", "golden_*.zfs"))
	for _, path := range goldens {
		if raw, err := os.ReadFile(path); err == nil {
			f.Add(raw)
		}
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		h := NewHandle(0)
		if out, dims, err := h.Decompress(in); err == nil && wire.CheckDims("zfp", len(out), dims) != nil {
			t.Fatalf("decode succeeded with dims %v for %d values", dims, len(out))
		}
		if out, dims, err := h.Decompress64(in); err == nil && wire.CheckDims("zfp", len(out), dims) != nil {
			t.Fatalf("decode succeeded with dims %v for %d values", dims, len(out))
		}
	})
}
