package zfp

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkInto holds one DecompressInto entry point to its Decompress on one
// stream: into a NaN-poisoned dst of the array's size — and into one with
// room to spare — the result is dst's own memory and bit-identical, so every
// element was written; a dst one element short is left as it was and a new
// array with the same bits returned.
func checkInto[F Float](t *testing.T, stream []byte, dec func([]byte) ([]F, []int, error),
	into func([]F, []byte) ([]F, []int, error), bits func([]F) []byte) {
	t.Helper()
	want, wantDims, err := dec(stream)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := func(n, capacity int) []F {
		dst := make([]F, n, capacity)
		for i := range dst[:capacity] {
			dst[:capacity][i] = F(math.NaN())
		}
		return dst
	}
	n := len(want)
	for _, dst := range [][]F{poisoned(n, n), poisoned(0, n+7), poisoned(n-1, n-1)} {
		got, dims, err := into(dst, stream)
		if err != nil {
			t.Fatalf("cap %d: %v", cap(dst), err)
		}
		if len(got) != n || !bytes.Equal(bits(got), bits(want)) {
			t.Fatalf("cap %d: DecompressInto differs from Decompress", cap(dst))
		}
		if len(dims) != len(wantDims) {
			t.Fatalf("cap %d: dims %v, want %v", cap(dst), dims, wantDims)
		}
		for i := range dims {
			if dims[i] != wantDims[i] {
				t.Fatalf("cap %d: dims %v, want %v", cap(dst), dims, wantDims)
			}
		}
		landed := &got[0] == &dst[:1][0]
		if fits := cap(dst) >= n; landed != fits {
			t.Fatalf("cap %d for %d elements: landed in dst = %v", cap(dst), n, landed)
		}
		if !landed {
			for i, v := range dst {
				if v == v {
					t.Fatalf("cap %d: short dst written at %d", cap(dst), i)
				}
			}
		}
	}
}

// TestDecompressIntoMatchesGoldens runs checkInto over every committed
// stream the decoder reads — the fixed-rate stream included — at 1, 2
// and 8 workers.
func TestDecompressIntoMatchesGoldens(t *testing.T) {
	paths, _ := filepath.Glob(filepath.Join("testdata", "golden_*.zfs"))
	if len(paths) == 0 {
		t.Fatal("no golden streams")
	}
	for _, path := range paths {
		if filepath.Base(path) == retiredGolden {
			continue // refused by every entry point: requireRefused
		}
		stream, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			h := NewHandle(workers)
			if strings.Contains(path, ".f64.") {
				checkInto(t, stream, h.Decompress64, h.DecompressInto64, float64Bits)
			} else {
				checkInto(t, stream, h.Decompress, h.DecompressInto, float32Bits)
			}
		}
	}
}
