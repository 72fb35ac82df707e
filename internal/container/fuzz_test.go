package container

import (
	"testing"
)

// FuzzUnpack drives Unpack/Unpack64/ReadChunk/Check with corrupted
// containers. Contract: coherent output or an error — never a panic, and
// never an output allocation a chunk blob could not plausibly back — and
// Check, which decodes without keeping the values, accepts exactly what
// Unpack does.
func FuzzUnpack(f *testing.F) {
	data := make([]float32, 8*16*16)
	for i := range data {
		data[i] = float32(i%31) * 0.125
	}
	dims := []int{8, 16, 16}
	pk, err := Pack("sz", data, dims, 1e-3, Options{ChunkElems: 2 * 16 * 16})
	if err != nil {
		f.Fatal(err)
	}
	zk, err := Pack("zfp", data, dims, 1e-3, Options{ChunkElems: 4 * 16 * 16})
	if err != nil {
		f.Fatal(err)
	}

	f.Add([]byte(nil))
	f.Add(pk[:4]) // magic only
	f.Add(pk)
	f.Add(zk)
	// Truncations: mid-header, mid-chunk-index, mid-blob.
	for _, cut := range []int{1, 8, 12, 20, 40, 64, 88, len(pk) / 2, len(pk) - 1} {
		if cut < len(pk) {
			f.Add(pk[:cut])
		}
	}
	// Bit flips over the header (incl. the codec name at byte 12), the dims,
	// the chunk index rows (lo/hi/size triples), and blob bytes.
	for _, pos := range []int{4, 8, 12, 17, 25, 33, 49, 57, 65, 73, 81, len(pk) - 3} {
		if pos < len(pk) {
			c := append([]byte(nil), pk...)
			c[pos] ^= 0x10
			f.Add(c)
		}
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		out, dims, err := Unpack(in, Options{})
		if err == nil {
			checkCoherent(t, len(out), dims)
		}
		if cerr := NewUnpacker(Options{Parallelism: 1}).Check(in, len(out)); (cerr == nil) != (err == nil) {
			t.Fatalf("Unpack: %v, Check: %v", err, cerr)
		}
		if out, dims, err := Unpack64(in, Options{}); err == nil {
			checkCoherent(t, len(out), dims)
		}
		if vals, cdims, _, err := ReadChunk(in, 0); err == nil {
			checkCoherent(t, len(vals), cdims)
		}
		// Stat must tolerate anything Unpack tolerates.
		_, _ = Stat(in)
	})
}

func checkCoherent(t *testing.T, n int, dims []int) {
	t.Helper()
	if len(dims) == 0 {
		t.Fatalf("decode succeeded with empty dims")
	}
	want := 1
	for _, d := range dims {
		if d <= 0 {
			t.Fatalf("decode succeeded with non-positive dim in %v", dims)
		}
		want *= d
	}
	if want != n {
		t.Fatalf("decode succeeded with dims %v (%d elems) but %d values", dims, want, n)
	}
}
