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

func goldenField64(dims []int) []float64 {
	f32 := goldenField32(dims)
	out := make([]float64, len(f32))
	for i, v := range f32 {
		out[i] = float64(v)
	}
	return out
}

var goldenCases = []struct {
	name string
	dims []int
	mode Mode
	// param: tolerance or bits/value depending on mode
	param float64
	f64   bool
}{
	{"acc_3d", []int{12, 12, 12}, ModeFixedAccuracy, 1e-3, false},
	{"acc_2d", []int{40, 40}, ModeFixedAccuracy, 1e-4, false},
	{"acc_1d", []int{1000}, ModeFixedAccuracy, 1e-3, false},
	{"acc_3d_f64", []int{12, 12, 12}, ModeFixedAccuracy, 1e-6, true},
	{"rate_3d", []int{12, 12, 12}, ModeFixedRate, 8, false},
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

func writeReconFile(path string, dims []int, bits []byte) error {
	var hdr []byte
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(len(dims)))
	hdr = append(hdr, b4[:]...)
	for _, d := range dims {
		var b8 [8]byte
		binary.LittleEndian.PutUint64(b8[:], uint64(d))
		hdr = append(hdr, b8[:]...)
	}
	return os.WriteFile(path, append(hdr, bits...), 0o644)
}

func readReconFile(t *testing.T, path string) ([]int, []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 4 {
		t.Fatalf("%s: truncated recon file", path)
	}
	nd := int(binary.LittleEndian.Uint32(raw))
	raw = raw[4:]
	dims := make([]int, nd)
	for i := range dims {
		dims[i] = int(binary.LittleEndian.Uint64(raw))
		raw = raw[8:]
	}
	return dims, raw
}

func float32Bits(vals []float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return out
}

func float64Bits(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

func goldenCompress(tc struct {
	name  string
	dims  []int
	mode  Mode
	param float64
	f64   bool
}) ([]byte, error) {
	f32 := goldenField32(tc.dims)
	if tc.mode != ModeFixedAccuracy {
		// Fixed-rate mode rejects non-finite input.
		for i, v := range f32 {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				f32[i] = 1.5
			}
		}
	}
	f64 := make([]float64, len(f32))
	for i, v := range f32 {
		f64[i] = float64(v)
	}
	switch {
	case tc.mode == ModeFixedRate && tc.f64:
		return compressFixedRate(f64, tc.dims, tc.param)
	case tc.mode == ModeFixedRate:
		return CompressFixedRate(f32, tc.dims, tc.param)
	case tc.f64:
		return Compress64(f64, tc.dims, tc.param)
	default:
		return Compress(f32, tc.dims, tc.param)
	}
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
		kind := "f32"
		if tc.f64 {
			kind = "f64"
		}
		name := fmt.Sprintf("golden_v%d_%s.%s.zfs", version, tc.name, kind)
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		f32 := goldenField32(tc.dims)
		f64 := make([]float64, len(f32))
		for i, v := range f32 {
			f64[i] = float64(v)
		}
		for _, workers := range []int{1, 2, 8} {
			h := NewHandle(workers)
			var got, appended []byte
			if tc.f64 {
				got, err = h.Compress64(f64, tc.dims, tc.param)
				if err == nil {
					appended, err = h.CompressAppend64([]byte("pre"), f64, tc.dims, tc.param)
				}
			} else {
				got, err = h.Compress(f32, tc.dims, tc.param)
				if err == nil {
					appended, err = h.CompressAppend([]byte("pre"), f32, tc.dims, tc.param)
				}
			}
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !bytes.Equal(got, want) || !bytes.Equal(appended, append([]byte("pre"), want...)) {
				t.Fatalf("%s workers=%d: handle bytes differ from the committed stream", name, workers)
			}
		}
	}
}

// TestGoldenStreams pins compressed streams and their decoded images. With
// -update it regenerates the current version's files (forcing a small shard
// granularity so the shard index machinery is exercised); without it, every
// pinned stream on disk — including ones written by older encoders — must
// decode bit-identically to its pinned image, or, for the retired
// fixed-precision stream, be refused.
func TestGoldenStreams(t *testing.T) {
	dir := "testdata"
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, tc := range goldenCases {
			kind := "f32"
			if tc.f64 {
				kind = "f64"
			}
			base := fmt.Sprintf("golden_v%d_%s.%s", version, tc.name, kind)
			stream, err := goldenCompress(tc)
			if err != nil {
				t.Fatal(err)
			}
			var reconBits []byte
			if tc.f64 {
				out, _, derr := Decompress64(stream)
				if derr != nil {
					t.Fatal(derr)
				}
				reconBits = float64Bits(out)
			} else {
				out, _, derr := Decompress(stream)
				if derr != nil {
					t.Fatal(derr)
				}
				reconBits = float32Bits(out)
			}
			if err := os.WriteFile(filepath.Join(dir, base+".zfs"), stream, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := writeReconFile(filepath.Join(dir, base+".recon"), tc.dims, reconBits); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d stream bytes)", base, len(stream))
		}
	}

	streams, err := filepath.Glob(filepath.Join(dir, "golden_*.zfs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) == 0 {
		t.Fatal("no golden streams; run with -update once")
	}
	for _, path := range streams {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			stream, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if filepath.Base(path) == retiredGolden {
				requireRefused(t, stream)
				return
			}
			wantDims, wantBits := readReconFile(t, strings.TrimSuffix(path, ".zfs")+".recon")
			var gotBits []byte
			var gotDims []int
			if strings.Contains(path, ".f64.") {
				out, d, err := Decompress64(stream)
				if err != nil {
					t.Fatal(err)
				}
				gotBits, gotDims = float64Bits(out), d
			} else {
				out, d, err := Decompress(stream)
				if err != nil {
					t.Fatal(err)
				}
				gotBits, gotDims = float32Bits(out), d
			}
			if len(gotDims) != len(wantDims) {
				t.Fatalf("dims %v, want %v", gotDims, wantDims)
			}
			for i := range gotDims {
				if gotDims[i] != wantDims[i] {
					t.Fatalf("dims %v, want %v", gotDims, wantDims)
				}
			}
			if !bytes.Equal(gotBits, wantBits) {
				t.Fatalf("decoded image differs from pinned golden")
			}
		})
	}
}
