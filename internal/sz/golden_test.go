package sz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "write golden codec streams for the current format version")

// goldenField32 builds a deterministic field using only exactly-specified
// float32 arithmetic (no transcendentals), with spikes and non-finite values
// sprinkled in so the unpredictable-value path is pinned too.
func goldenField32(dims []int) []float32 {
	n := 1
	for _, d := range dims {
		n *= d
	}
	data := make([]float32, n)
	d2 := dims[len(dims)-1]
	rng := uint32(0x9E3779B9)
	for i := range data {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		smooth := float32(i%d2)*0.25 + float32(i/d2)*0.0625
		noise := float32(rng&0xFF) * (1.0 / 4096.0)
		data[i] = smooth + noise
		switch {
		case i%997 == 499:
			data[i] = smooth * 1e6 // spike: forced unpredictable
		case i == 2345:
			data[i] = float32(math.Inf(1))
		}
	}
	return data
}

// goldenNoisy32 is a particle-like 1-D field in the same exactly-specified
// arithmetic: a slow staircase under bell-shaped noise (four summed bytes)
// hundreds of quantization steps wide at eb 0.5, so the residual alphabet is
// wide, the Huffman output close to uniform, and — in partitions of 8 Ki
// elements, whose 8 KB is enough for the lossless stage's estimate to say so
// — every partition is stored.
func goldenNoisy32(dims []int) []float32 {
	data := make([]float32, dims[0])
	rng := uint32(0x2545F491)
	for i := range data {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		sum := float32(rng&0xFF) + float32(rng>>8&0xFF) + float32(rng>>16&0xFF) + float32(rng>>24)
		data[i] = float32(i/512)*0.5 + (sum-510)*0.25
	}
	return data
}

func goldenField64(dims []int) []float64 {
	var out []float64
	for _, v := range goldenField32(dims) {
		out = append(out, float64(v))
	}
	return out
}

// goldenCases are the pinned streams. Compressed bytes are regenerated with
// -update (named by the current version constant); the decoder reads only
// that version, so a format bump replaces the files.
var goldenCases = []goldenCase{
	{name: "order1_3d", dims: []int{6, 32, 32}, eb: 1e-3},
	{name: "order1_2d", dims: []int{48, 64}, eb: 1e-4},
	{name: "order1_1d", dims: []int{4096}, eb: 1e-3},
	{name: "order1_3d_f64", dims: []int{6, 32, 32}, eb: 1e-6, f64: true},
	{name: "stored_1d", dims: []int{16384}, eb: 0.5, partElems: 8192, field32: goldenNoisy32, stored: true},
}

type goldenCase struct {
	name string
	dims []int
	eb   float64
	f64  bool
	// partElems is the partition granularity the stream is recorded under
	// (0: 2048, small enough that every case has several partitions).
	partElems int
	// field32 generates the input (nil: goldenField32).
	field32 func([]int) []float32
	// stored: every partition is in the lossless stage's stored form.
	stored bool
}

func (tc goldenCase) file() string {
	kind := "f32"
	if tc.f64 {
		kind = "f64"
	}
	return fmt.Sprintf("golden_v%d_%s.%s", version, tc.name, kind)
}

// compress appends tc's stream, written by h, to dst.
func (tc goldenCase) compress(h *Handle, dst []byte) ([]byte, error) {
	switch {
	case tc.f64:
		return h.CompressAppend64(dst, goldenField64(tc.dims), tc.dims, tc.eb)
	case tc.field32 != nil:
		return h.CompressAppend(dst, tc.field32(tc.dims), tc.dims, tc.eb)
	}
	return h.CompressAppend(dst, goldenField32(tc.dims), tc.dims, tc.eb)
}

// partTarget is the partition granularity tc is recorded under.
func (tc goldenCase) partTarget() int {
	if tc.partElems > 0 {
		return tc.partElems
	}
	return 2048
}

// retiredGoldens are streams of configurations the codec no longer has
// (previous-value and hybrid-regression predictors). They stay committed
// without a decoded image: the decoder must refuse them.
var retiredGoldens = []string{
	"golden_v4_order0_3d.f32.szs",
	"golden_v4_order2_3d.f32.szs",
}

func isRetiredGolden(path string) bool {
	for _, name := range retiredGoldens {
		if filepath.Base(path) == name {
			return true
		}
	}
	return false
}

// requireRefused asserts that both decoders — and their Into forms, handed
// no room — return an error on stream without allocating anything the size
// of an output: the refusal comes from the header, before the array the
// header describes is made.
func requireRefused(t *testing.T, stream []byte) {
	t.Helper()
	// TotalAlloc counts the whole process, so a runtime or test-harness
	// allocation landing in the window reads as the decoder's: the least of
	// three attempts is what is held to the budget.
	least := ^uint64(0)
	for try := 0; try < 3 && least > 4096; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err32 := Decompress(stream)
		_, _, err64 := Decompress64(stream)
		h := NewHandle(1)
		_, _, into32 := h.DecompressInto(nil, stream)
		_, _, into64 := h.DecompressInto64(nil, stream)
		runtime.ReadMemStats(&after)
		if err32 == nil || err64 == nil || into32 == nil || into64 == nil {
			t.Fatalf("retired stream decoded: Decompress err %v, Decompress64 err %v, DecompressInto err %v, DecompressInto64 err %v",
				err32, err64, into32, into64)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4096 {
		t.Fatalf("refusal allocated %d bytes; must come before any output is sized", least)
	}
}

// bitsOf is vals' little-endian bit image.
func bitsOf[F Float](vals []F) []byte {
	var out []byte
	for _, v := range vals {
		if f, ok := any(v).(float32); ok {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(f))
		} else {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(float64(v)))
		}
	}
	return out
}

// decodeRecon decodes stream at the precision its path names and returns the
// image a .recon file holds: uint32 ndims, ndims x uint64 dims, then the
// decoded element bits.
func decodeRecon(path string, stream []byte) ([]byte, error) {
	var dims []int
	var bits []byte
	var err error
	if strings.Contains(path, ".f64.") {
		var out []float64
		out, dims, err = Decompress64(stream)
		bits = bitsOf(out)
	} else {
		var out []float32
		out, dims, err = Decompress(stream)
		bits = bitsOf(out)
	}
	img := binary.LittleEndian.AppendUint32(nil, uint32(len(dims)))
	for _, d := range dims {
		img = binary.LittleEndian.AppendUint64(img, uint64(d))
	}
	return append(img, bits...), err
}

// TestGoldenStreams pins compressed streams and their decoded images. With
// -update it regenerates the current version's files (forcing a small
// partition granularity so the partition machinery is exercised); without
// it, every pinned stream on disk must decode bit-identically to its pinned
// image — or, for the retired configurations, be refused.
func TestGoldenStreams(t *testing.T) {
	dir := "testdata"
	if *updateGolden {
		saved := partTargetElems
		defer func() { partTargetElems = saved }()
		for _, tc := range goldenCases {
			partTargetElems = tc.partTarget()
			path := filepath.Join(dir, tc.file()+".szs")
			stream, err := tc.compress(NewHandle(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			img, err := decodeRecon(path, stream)
			if err == nil {
				err = os.WriteFile(path, stream, 0o644)
			}
			if err == nil {
				err = os.WriteFile(strings.TrimSuffix(path, ".szs")+".recon", img, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d stream bytes)", path, len(stream))
		}
	}

	streams, _ := filepath.Glob(filepath.Join(dir, "golden_*.szs"))
	if len(streams) == 0 {
		t.Fatal("no golden streams; run with -update once")
	}
	for _, path := range streams {
		t.Run(filepath.Base(path), func(t *testing.T) {
			stream, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if isRetiredGolden(path) {
				requireRefused(t, stream)
				return
			}
			want, err := os.ReadFile(strings.TrimSuffix(path, ".szs") + ".recon")
			if err != nil {
				t.Fatal(err)
			}
			if got, err := decodeRecon(path, stream); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("err %v, or the decoded image differs from the pinned one", err)
			}
		})
	}
}

// TestHandleMatchesGoldens: at every worker count a Handle's CompressAppend
// and CompressAppend64 write exactly the committed streams (under the
// partition granularity they were recorded with), so the one configuration
// the codec has left is the one the goldens pin.
func TestHandleMatchesGoldens(t *testing.T) {
	saved := partTargetElems
	defer func() { partTargetElems = saved }()
	for _, tc := range goldenCases {
		partTargetElems = tc.partTarget()
		name := tc.file() + ".szs"
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if parts := partitionPayloads(t, want); tc.stored && (len(parts) < 2 || storedPartitions(parts) != len(parts)) {
			t.Fatalf("%s: %d of %d partitions stored, want all of several", name, storedPartitions(parts), len(parts))
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := tc.compress(NewHandle(workers), []byte("pre"))
			if err != nil || !bytes.Equal(got, append([]byte("pre"), want...)) {
				t.Fatalf("%s workers=%d: err %v, or handle bytes differ from the committed stream", name, workers, err)
			}
		}
	}
}

// TestGoldenStreamPrefixes: every byte-prefix of every golden stream, both
// precisions, is an error from the public decoders —
// never a success, never a panic. The word-at-a-time entropy decoders peek
// zero-padded bits past the end of their input; this pins that truncation
// still surfaces.
func TestGoldenStreamPrefixes(t *testing.T) {
	paths, _ := filepath.Glob(filepath.Join("testdata", "golden_*.szs"))
	if len(paths) == 0 {
		t.Fatal("no golden streams")
	}
	for _, path := range paths {
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, _, err := Decompress(buf[:cut]); err == nil {
				t.Fatalf("%s: Decompress of %d-byte prefix succeeded", path, cut)
			}
			if _, _, err := Decompress64(buf[:cut]); err == nil {
				t.Fatalf("%s: Decompress64 of %d-byte prefix succeeded", path, cut)
			}
		}
	}
}

// TestRetiredConfigurationsRefused: streams written under a configuration the
// codec no longer has — the committed order-0 and order-2 goldens, and
// current streams whose quantBits or predictor-order header word is forged to
// any other value — are refused from the header: an error, no panic, no
// output allocation.
func TestRetiredConfigurationsRefused(t *testing.T) {
	for _, name := range retiredGoldens {
		stream, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { requireRefused(t, stream) })
	}
	current, err := os.ReadFile(filepath.Join("testdata", "golden_v4_order1_3d.f32.szs"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decompress(current); err != nil {
		t.Fatalf("unforged stream: %v", err)
	}
	// Header words after magic, version, kind: quantBits at byte 12,
	// predictor order at byte 16.
	forge := func(off int, v uint32) []byte {
		out := append([]byte(nil), current...)
		binary.LittleEndian.PutUint32(out[off:], v)
		return out
	}
	for _, qb := range []uint32{6, 15, 17, 20} {
		t.Run(fmt.Sprintf("quantBits=%d", qb), func(t *testing.T) { requireRefused(t, forge(12, qb)) })
	}
	for _, po := range []uint32{0, 2, 3} {
		t.Run(fmt.Sprintf("predOrder=%d", po), func(t *testing.T) { requireRefused(t, forge(16, po)) })
	}
}

// retiredStamp returns a copy of a current-version stream with the version
// field rewritten to 3, the last format the decoder used to read as well.
func retiredStamp(stream []byte) []byte {
	out := append([]byte(nil), stream...)
	binary.LittleEndian.PutUint32(out[4:], 3)
	return out
}

// TestRetiredVersionUnsupported: a v3-stamped stream is refused by version
// — not decoded under the v4 layout, not reported as corruption.
func TestRetiredVersionUnsupported(t *testing.T) {
	stream, err := os.ReadFile(filepath.Join("testdata", "golden_v4_order1_3d.f32.szs"))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Decompress(retiredStamp(stream))
	if err == nil || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unsupported version 3") {
		t.Fatalf("v3-stamped stream: %v, want unsupported version", err)
	}
}

// TestForgedStoredPartitionRefused: a stored partition expands one to one,
// yet the pre-allocation plausibility check still allows every payload byte
// lossless.MaxExpansion raw bytes, the bound that holds for both forms. A
// stored-form stream whose header is forged to claim 2^30 elements — the
// first partition's row count stretched to match — is refused there, before
// the output it describes is made.
func TestForgedStoredPartitionRefused(t *testing.T) {
	stream, err := os.ReadFile(filepath.Join("testdata", "golden_v4_stored_1d.f32.szs"))
	if err != nil {
		t.Fatal(err)
	}
	if parts := partitionPayloads(t, stream); storedPartitions(parts) != len(parts) {
		t.Fatal("golden_v4_stored_1d is not all stored partitions")
	}
	// One dim: dims[0] at byte 32, then splitDepth and the partition count,
	// then (rows, payload length) per partition from byte 48.
	const claimed = 1 << 30
	forged := append([]byte(nil), stream...)
	rows0 := binary.LittleEndian.Uint64(forged[48:])
	binary.LittleEndian.PutUint64(forged[48:], rows0+claimed-binary.LittleEndian.Uint64(forged[32:]))
	binary.LittleEndian.PutUint64(forged[32:], claimed)
	requireRefused(t, forged)
	if _, _, err := Decompress(forged); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged element count: err %v, want ErrCorrupt", err)
	}
}
