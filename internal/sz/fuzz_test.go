package sz

import (
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
	buf, err := Compress(data, []int{4, 8, 8}, 1e-3)
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

// FuzzDecompress drives both decoders with corrupted streams. The contract
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

	// A float64 stream too, so the kind byte gets exercised.
	d64 := make([]float64, 64)
	for i := range d64 {
		d64[i] = float64(i) * 0.5
	}
	b64, err := Compress64(d64, []int{64}, 1e-4)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b64)

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
		if out, dims, err := Decompress(in); err == nil && wire.CheckDims("sz", len(out), dims) != nil {
			t.Fatalf("decode succeeded with dims %v for %d values", dims, len(out))
		}
		if out, dims, err := Decompress64(in); err == nil && wire.CheckDims("sz", len(out), dims) != nil {
			t.Fatalf("decode succeeded with dims %v for %d values", dims, len(out))
		}
	})
}
