package zfp

import (
	"bytes"
	"encoding/binary"
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

// goldenField32 mirrors the sz golden generator: deterministic float32
// arithmetic only, with spikes and non-finite values so the raw-block path
// is pinned alongside the coded one.
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
		case i%499 == 233:
			data[i] = smooth * 1e7 // spike: forces deep plane cutoffs
		case i == 777:
			data[i] = float32(math.NaN())
		case i == 888:
			data[i] = float32(math.Inf(-1))
		}
	}
	return data
}

type goldenCase struct {
	name string
	dims []int
	mode Mode
	// param: tolerance or bits/value depending on mode
	param float64
	f64   bool
}

var goldenCases = []goldenCase{
	{"acc_3d", []int{12, 12, 12}, ModeFixedAccuracy, 1e-3, false},
	{"acc_2d", []int{40, 40}, ModeFixedAccuracy, 1e-4, false},
	{"acc_1d", []int{1000}, ModeFixedAccuracy, 1e-3, false},
	{"acc_3d_f64", []int{12, 12, 12}, ModeFixedAccuracy, 1e-6, true},
	{"rate_3d", []int{12, 12, 12}, ModeFixedRate, 8, false},
}

func (tc goldenCase) file() string {
	kind := "f32"
	if tc.f64 {
		kind = "f64"
	}
	return fmt.Sprintf("golden_v%d_%s.%s.zfs", version, tc.name, kind)
}

// compress appends tc's stream to dst: a fixed-accuracy one written by h, a
// fixed-rate one by the one-shot.
func (tc goldenCase) compress(h *Handle, dst []byte) ([]byte, error) {
	f32 := goldenField32(tc.dims)
	if tc.mode == ModeFixedRate {
		// Fixed-rate mode rejects non-finite input.
		for i, v := range f32 {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				f32[i] = 1.5
			}
		}
		stream, err := CompressFixedRate(f32, tc.dims, tc.param)
		return append(dst, stream...), err
	}
	if tc.f64 {
		var f64 []float64
		for _, v := range f32 {
			f64 = append(f64, float64(v))
		}
		return h.CompressAppend64(dst, f64, tc.dims, tc.param)
	}
	return h.CompressAppend(dst, f32, tc.dims, tc.param)
}

// retiredGolden is a stream of the fixed-precision mode the codec no longer
// has. It stays committed without a decoded image: the decoder must refuse it.
const retiredGolden = "golden_v3_prec_3d.f32.zfs"

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

// forgeMode returns a copy of stream with its mode word (after magic,
// version and kind) rewritten.
func forgeMode(stream []byte, mode uint32) []byte {
	out := append([]byte(nil), stream...)
	binary.LittleEndian.PutUint32(out[12:], mode)
	return out
}

// TestRetiredConfigurationsRefused: the committed fixed-precision golden, and
// current streams whose mode word is forged to the retired value or beyond,
// are refused from the header: an error, no panic, no output allocation.
func TestRetiredConfigurationsRefused(t *testing.T) {
	stream, err := os.ReadFile(filepath.Join("testdata", retiredGolden))
	if err != nil {
		t.Fatal(err)
	}
	t.Run(retiredGolden, func(t *testing.T) { requireRefused(t, stream) })
	for _, name := range []string{"golden_v3_acc_3d.f32.zfs", "golden_v3_rate_3d.f32.zfs"} {
		current, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := Decompress(current); err != nil {
			t.Fatalf("%s unforged: %v", name, err)
		}
		for _, mode := range []uint32{2, 3} {
			t.Run(fmt.Sprintf("%s/mode=%d", name, mode), func(t *testing.T) {
				requireRefused(t, forgeMode(current, mode))
			})
		}
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

// TestHandleMatchesGoldens: at every worker count a Handle's Compress,
// CompressAppend and Compress64 write exactly the committed fixed-accuracy
// streams, so the configuration the codec has left is the one the goldens pin.
// The goldens predate the adaptive shard plan and carry its old fixed size of
// 4096 blocks, which the plan is pinned to here.
func TestHandleMatchesGoldens(t *testing.T) {
	saved := shardMinBlocks
	shardMinBlocks = shardTargetBlocks
	defer func() { shardMinBlocks = saved }()
	for _, tc := range goldenCases {
		if tc.mode != ModeFixedAccuracy {
			continue
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.file()))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := tc.compress(NewHandle(workers), []byte("pre"))
			if err != nil || !bytes.Equal(got, append([]byte("pre"), want...)) {
				t.Fatalf("%s workers=%d: err %v, or handle bytes differ from the committed stream", tc.file(), workers, err)
			}
		}
	}
}

// TestGoldenStreams pins compressed streams and their decoded images. With
// -update it regenerates the current version's files; without it, every
// pinned stream on disk — including ones written by older encoders — must
// decode bit-identically to its pinned image, or, for the retired
// fixed-precision stream, be refused.
func TestGoldenStreams(t *testing.T) {
	dir := "testdata"
	if *updateGolden {
		for _, tc := range goldenCases {
			path := filepath.Join(dir, tc.file())
			stream, err := tc.compress(NewHandle(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			img, err := decodeRecon(path, stream)
			if err == nil {
				err = os.WriteFile(path, stream, 0o644)
			}
			if err == nil {
				err = os.WriteFile(strings.TrimSuffix(path, ".zfs")+".recon", img, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d stream bytes)", path, len(stream))
		}
	}

	streams, _ := filepath.Glob(filepath.Join(dir, "golden_*.zfs"))
	if len(streams) == 0 {
		t.Fatal("no golden streams; run with -update once")
	}
	for _, path := range streams {
		t.Run(filepath.Base(path), func(t *testing.T) {
			stream, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if filepath.Base(path) == retiredGolden {
				requireRefused(t, stream)
				return
			}
			want, err := os.ReadFile(strings.TrimSuffix(path, ".zfs") + ".recon")
			if err != nil {
				t.Fatal(err)
			}
			if got, err := decodeRecon(path, stream); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("err %v, or the decoded image differs from the pinned one", err)
			}
		})
	}
}
