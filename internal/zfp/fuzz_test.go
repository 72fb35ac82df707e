package zfp

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"lcpio/internal/wire"
)

// FuzzDecompress drives the decoder with corrupted streams and streams
// forged to the retired mode and element-width words. Contract: coherent
// output or an error — never a panic, and never an output allocation the
// payload could not plausibly back (each block costs at least its tag bits,
// checked before the slice is sized from header dims).
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
	rate := forgeMode(acc, 1)     // the retired fixed-rate mode word
	prec := forgeMode(acc, 2)     // the retired fixed-precision mode word
	wide := forgeWord(acc, 8, 64) // the retired float64 element width

	f.Add([]byte(nil))
	f.Add(acc[:4]) // magic only
	f.Add(acc)
	f.Add(rate)
	f.Add(prec)
	f.Add(wide)
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

	// Pinned golden streams (the retired modes and width too, and ones
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
	})
}

// FuzzCompressBound drives the encoder with arbitrary float32 values —
// subnormals, exponent spreads as wide as the format, NaN and ±Inf — cut
// into 1-, 2- or 3-D arrays, at tolerances over 320 binary orders, far
// below an ULP of any float32 and far above its range. Contract: every
// finite element decodes within the tolerance, every non-finite one as its
// own bits, and the bytes are the same at one and four workers, with shards
// of at most four blocks so the cutoff search restarts in each. Seeded with
// the verifier reference test's adversarial blocks.
func FuzzCompressBound(f *testing.F) {
	s := xs64(0x7E51F1)
	for n, blk := range adversarialBlocks(&s) {
		for _, exp := range []int{-160, -24, -10, 0, 20, 128} {
			f.Add(uint8(n), uint16(exp+160)<<4|uint16(n&15), bitsOf(blk))
		}
	}
	smallShards(f, 4)
	f.Fuzz(func(t *testing.T, shape uint8, tol uint16, raw []byte) {
		n := min(len(raw)/4, 4096)
		if n == 0 {
			return
		}
		data := make([]float32, n)
		for i := range data {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		// One row of width w (1-D), rows of w (2-D), or planes of w×w (3-D),
		// trimming what does not fill the last row or plane.
		w := int(shape>>2)%9 + 1
		dims := []int{n}
		switch shape % 3 {
		case 1:
			dims = []int{n / w, w}
		case 2:
			dims = []int{n / (w * w), w, w}
		}
		if dims[0] == 0 {
			return
		}
		size := 1
		for _, d := range dims {
			size *= d
		}
		data = data[:size]
		eb := math.Ldexp(1+float64(tol&15)/16, int(tol>>4)%320-160)

		one, err := NewHandle(1).Compress(data, dims, eb)
		if err != nil {
			t.Fatal(err)
		}
		four, err := NewHandle(4).Compress(data, dims, eb)
		if err != nil || !bytes.Equal(one, four) {
			t.Fatalf("dims %v eb %g: err %v, or four workers write other bytes than one", dims, eb, err)
		}
		out, _, err := NewHandle(1).Decompress(one)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range data {
			finite := !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0)
			if finite && !(math.Abs(float64(out[i])-float64(v)) <= eb) ||
				!finite && math.Float32bits(out[i]) != math.Float32bits(v) {
				t.Fatalf("dims %v eb %g: element %d = %g (%#x) decodes %g (%#x)",
					dims, eb, i, v, math.Float32bits(v), out[i], math.Float32bits(out[i]))
			}
		}
	})
}
