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
	eb   float64
}

var goldenCases = []goldenCase{
	{"acc_3d", []int{12, 12, 12}, 1e-3},
	{"acc_2d", []int{40, 40}, 1e-4},
	{"acc_1d", []int{1000}, 1e-3},
}

func (tc goldenCase) file() string {
	return fmt.Sprintf("golden_v%d_%s.f32.zfs", version, tc.name)
}

// preSearchFile is tc's stream as the encoder wrote it before the cutoff
// search (the fixed-step rule refEncodeBlockFixedStep keeps), committed with
// its decoded image as a decode-only fixture.
func (tc goldenCase) preSearchFile() string {
	return fmt.Sprintf("golden_v%d_presearch_%s.f32.zfs", version, tc.name)
}

// compress appends tc's stream, written by h, to dst.
func (tc goldenCase) compress(h *Handle, dst []byte) ([]byte, error) {
	return h.CompressAppend(dst, goldenField32(tc.dims), tc.dims, tc.eb)
}

// The retired goldens are streams of the fixed-precision and fixed-rate
// modes and of the float64 element width, which the codec no longer has.
// They stay committed without a decoded image: the decoder must refuse them.
const (
	precGolden = "golden_v3_prec_3d.f32.zfs"
	rateGolden = "golden_v3_rate_3d.f32.zfs"
	f64Golden  = "golden_v3_acc_3d_f64.f64.zfs"
)

func retired(path string) bool {
	base := filepath.Base(path)
	return base == precGolden || base == rateGolden || base == f64Golden
}

// requireRefused asserts that Decompress — and DecompressInto, handed no
// room — return an error on stream without allocating anything the size of
// an output: the refusal comes from the header, before the array the header
// describes is made.
func requireRefused(t *testing.T, stream []byte) {
	t.Helper()
	// TotalAlloc counts the whole process, so a runtime or test-harness
	// allocation landing in the window reads as the decoder's: the least of
	// three attempts is what is held to the budget.
	least := ^uint64(0)
	for try := 0; try < 3 && least > 4096; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h := NewHandle(1)
		_, _, errDec := h.Decompress(stream)
		_, _, errInto := h.DecompressInto(nil, stream)
		runtime.ReadMemStats(&after)
		if errDec == nil || errInto == nil {
			t.Fatalf("retired stream decoded: Decompress err %v, DecompressInto err %v", errDec, errInto)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4096 {
		t.Fatalf("refusal allocated %d bytes; must come before any output is sized", least)
	}
}

// forgeWord returns a copy of stream with the header word at off rewritten:
// the element width at byte 8, the mode at byte 12.
func forgeWord(stream []byte, off int, v uint32) []byte {
	out := append([]byte(nil), stream...)
	binary.LittleEndian.PutUint32(out[off:], v)
	return out
}

// forgeMode returns a copy of stream with its mode word rewritten.
func forgeMode(stream []byte, mode uint32) []byte { return forgeWord(stream, 12, mode) }

// TestRetiredConfigurationsRefused: the committed fixed-precision,
// fixed-rate and float64 goldens are refused from the header (an error, no
// panic, no output allocation), and so is each of them and a current stream
// with its mode word forged to any other retired value or beyond, and a
// current stream with its element-width word forged to anything but 32.
func TestRetiredConfigurationsRefused(t *testing.T) {
	for _, name := range []string{precGolden, rateGolden, f64Golden, "golden_v3_acc_3d.f32.zfs"} {
		stream, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			if retired(name) {
				requireRefused(t, stream)
			} else if _, _, err := NewHandle(0).Decompress(stream); err != nil {
				t.Fatalf("unforged: %v", err)
			} else {
				for _, bits := range []uint32{0, 16, 64} {
					t.Run(fmt.Sprintf("elemBits=%d", bits), func(t *testing.T) {
						requireRefused(t, forgeWord(stream, 8, bits))
					})
				}
			}
			for _, mode := range []uint32{1, 2, 3} {
				if mode == binary.LittleEndian.Uint32(stream[12:]) {
					continue
				}
				t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
					requireRefused(t, forgeMode(stream, mode))
				})
			}
		})
	}
}

// bitsOf is vals' little-endian bit image.
func bitsOf(vals []float32) []byte {
	var out []byte
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out
}

// decodeRecon decodes stream and returns the image a .recon file holds:
// uint32 ndims, ndims x uint64 dims, then the decoded element bits.
func decodeRecon(stream []byte) ([]byte, error) {
	out, dims, err := NewHandle(0).Decompress(stream)
	img := binary.LittleEndian.AppendUint32(nil, uint32(len(dims)))
	for _, d := range dims {
		img = binary.LittleEndian.AppendUint64(img, uint64(d))
	}
	return append(img, bitsOf(out)...), err
}

// TestHandleMatchesGoldens: at every worker count a Handle's CompressAppend
// writes exactly the committed streams, so the
// configuration the codec has is the one the goldens pin.
func TestHandleMatchesGoldens(t *testing.T) {
	for _, tc := range goldenCases {
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
// fixed-precision, fixed-rate and float64 streams, be refused.
func TestGoldenStreams(t *testing.T) {
	dir := "testdata"
	if *updateGolden {
		for _, tc := range goldenCases {
			path := filepath.Join(dir, tc.file())
			stream, err := tc.compress(NewHandle(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			img, err := decodeRecon(stream)
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
			if retired(path) {
				requireRefused(t, stream)
				return
			}
			want, err := os.ReadFile(strings.TrimSuffix(path, ".zfs") + ".recon")
			if err != nil {
				t.Fatal(err)
			}
			if got, err := decodeRecon(stream); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("err %v, or the decoded image differs from the pinned one", err)
			}
		})
	}
}
