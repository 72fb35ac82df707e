package sz

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"lcpio/internal/wire"
)

// fuzzSeedStream builds a small valid float32 stream for the fuzz corpus.
func fuzzSeedStream(tb testing.TB) []byte {
	data := make([]float32, 4*8*8)
	for i := range data {
		data[i] = float32(i%17) * 0.25
	}
	buf, err := NewHandle(0).Compress(data, []int{4, 8, 8}, 1e-3)
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

// FuzzDecompress drives the decoder with corrupted streams. The contract
// under test: any input either decodes to a coherent array or returns an
// error — never a panic, and never an allocation driven by unvalidated
// header fields (the plausibility guards tie claimed element counts to
// payload size before the output slice is made).
func FuzzDecompress(f *testing.F) {
	buf := fuzzSeedStream(f)
	f.Add([]byte(nil))
	f.Add(buf[:4]) // magic only
	f.Add(buf)
	// Truncations, including mid-header and mid-partition-index cuts.
	for _, cut := range []int{1, 8, 16, 24, 32, len(buf) / 2, len(buf) - 1} {
		if cut < len(buf) {
			f.Add(buf[:cut])
		}
	}
	// Bit flips across the header and partition index (first 48 bytes) and a
	// few payload positions.
	for _, pos := range []int{4, 5, 9, 13, 21, 29, 37, 41, 45, len(buf) - 2} {
		if pos < len(buf) {
			c := append([]byte(nil), buf...)
			c[pos] ^= 0x40
			f.Add(c)
		}
	}

	// The stream with its element-width word forged to the retired float64
	// width, so the width word gets exercised.
	wide := append([]byte(nil), buf...)
	binary.LittleEndian.PutUint32(wide[8:], 64)
	f.Add(wide)

	// The pinned golden streams, and each again stamped with the retired
	// version 3, so the refusal of an old stream stays in the corpus.
	goldens, _ := filepath.Glob(filepath.Join("testdata", "golden_*.szs"))
	for _, path := range goldens {
		if raw, err := os.ReadFile(path); err == nil {
			f.Add(raw)
			f.Add(retiredStamp(raw))
		}
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		h := NewHandle(0)
		if out, dims, err := h.Decompress(in); err == nil && wire.CheckDims("sz", len(out), dims) != nil {
			t.Fatalf("decode succeeded with dims %v for %d values", dims, len(out))
		}
	})
}

// FuzzDecodeDifferential: on any bytes the one-pass decoder and the two-pass
// reference agree — both fail with the same error, or both succeed with the
// same bits — and neither panics. Seeds: every committed golden, byte
// prefixes and bit flips of the current ones, and hostile partitions of the
// 3-D golden.
func FuzzDecodeDifferential(f *testing.F) {
	goldens, _ := filepath.Glob(filepath.Join("testdata", "golden_*.szs"))
	for _, path := range goldens {
		if raw, err := os.ReadFile(path); err == nil {
			f.Add(raw)
		}
	}
	for _, raw := range currentGoldens(f) {
		for cut := 0; cut < len(raw); cut += len(raw)/8 + 1 {
			f.Add(raw[:cut])
			flip := append([]byte(nil), raw...)
			flip[cut] ^= 1 << (cut % 8)
			f.Add(flip)
		}
	}
	for _, s := range hostilePartitions(f, currentGoldens(f)["golden_v4_order1_3d.f32.szs"], 211) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		diffDecode(t, in, "fuzz input")
	})
}
