package compress_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"lcpio/internal/compress"
)

// The compress.Handle contracts, each stated once and run for every
// registered codec: the error bound on every element
// (TestErrorBoundHolds), byte identity across workers and reuse
// (TestHandleMatchesGoldens), DecompressInto against Decompress, refusal of
// hostile bytes from the header inside 4 KiB (TestDecompressRandomGarbage,
// TestDecompressMutatedStreams), the steady-state allocation count and the
// scaling gate. No codec is exempt from any of them. What only one codec
// claims (its ratios, its partition or shard plan, lane scratch, golden
// stream bytes, retired formats) is tested in that codec's package.

// eachCodec runs a contract as one subtest per registered codec, named
// <codec>/f32 after the one element type every stream holds.
func eachCodec(t *testing.T, contract func(*testing.T, string)) {
	for _, name := range compress.Names() {
		t.Run(name, func(t *testing.T) {
			t.Run("f32", func(t *testing.T) { contract(t, name) })
		})
	}
}

func newHandle(t testing.TB, name string, workers int) compress.Handle {
	t.Helper()
	h, err := compress.NewHandle(name, workers)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func elems(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return n
}

func convert(vals []float64) []float32 {
	out := make([]float32, len(vals))
	for i, v := range vals {
		out[i] = float32(v)
	}
	return out
}

// boundErr reports the first element of out that breaks eb against in: a
// finite value must come back within eb, a NaN as a NaN and an infinity as
// itself.
func boundErr(in, out []float32, eb float64) error {
	if len(out) != len(in) {
		return fmt.Errorf("%d elements decoded, want %d", len(out), len(in))
	}
	for i := range in {
		x, y := float64(in[i]), float64(out[i])
		switch {
		case math.IsNaN(x):
			if !math.IsNaN(y) {
				return fmt.Errorf("element %d: NaN decoded as %g", i, y)
			}
		case math.IsInf(x, 0):
			if y != x {
				return fmt.Errorf("element %d: %g decoded as %g", i, x, y)
			}
		case !(math.Abs(x-y) <= eb):
			return fmt.Errorf("element %d: %g decoded as %g, error %g > bound %g", i, x, y, math.Abs(x-y), eb)
		}
	}
	return nil
}

// boundKept sends data through h at eb and holds what comes back to data's
// shape and to the bound.
func boundKept(h compress.Handle, data []float32, dims []int, eb float64) error {
	stream, err := h.CompressAppend(nil, data, dims, eb)
	if err != nil {
		return err
	}
	out, got, err := h.Decompress(stream)
	if err == nil && !slices.Equal(got, dims) {
		err = fmt.Errorf("dims %v, want %v", got, dims)
	}
	if err != nil {
		return err
	}
	return boundErr(data, out, eb)
}

// boundClass is one adversarial input.
type boundClass struct {
	name   string
	dims   []int
	eb     float64
	values func(n int) []float64
}

func fill(f func(i int) float64) func(int) []float64 {
	return func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
}

func boundClasses() []boundClass {
	rng := rand.New(rand.NewSource(3))
	noise := make([]float64, 5000)
	for i := range noise {
		noise[i] = rng.NormFloat64() * 1e6
	}
	return []boundClass{
		{"constant", []int{4096}, 1e-3, fill(func(int) float64 { return 3.25 })},
		{"zero", []int{256}, 1e-6, fill(func(int) float64 { return 0 })},
		{"ramp", []int{10000}, 1e-4, fill(func(i int) float64 { return float64(i) * 1e-3 })},
		{"smooth-1d", []int{4000}, 1e-3, fill(func(i int) float64 { return math.Sin(float64(i) / 50) })},
		// Neither 60 nor 100 nor 18 is a multiple of 4: partial blocks.
		{"smooth-2d", []int{60, 100}, 1e-4, fill(func(i int) float64 {
			return math.Sin(float64(i/100)/9) * math.Cos(float64(i%100)/7)
		})},
		{"smooth-3d", []int{18, 18, 18}, 1e-3, fill(func(i int) float64 {
			return math.Sin(float64(i/324)/6)*math.Cos(float64(i/18%18)/5) + math.Sin(float64(i%18)/7)
		})},
		{"noise", []int{5000}, 0.5, func(int) []float64 { return noise }},
		{"extremes", []int{16}, 1e-3, func(int) []float64 {
			const big = math.MaxFloat32
			return []float64{0, big, -big, 1e-38, -1e-38, 1, -1, 65504, big / 2, -big / 2, 0, 0, 0, 0, 0, 0}
		}},
		{"mixed-magnitudes", []int{16}, 1, func(int) []float64 {
			return []float64{1e-20, 1e20, -1e20, 1, -1, 0, 3.14, -2.71, 1e10, -1e-10, 42, 0.001, 7e7, -7e-7, 0, 1e5}
		}},
		{"non-finite", []int{64}, 1e-3, fill(func(i int) float64 {
			switch i {
			case 10:
				return math.NaN()
			case 33:
				return math.Inf(1)
			case 40:
				return math.Inf(-1)
			}
			return float64(i)
		})},
		binEdges(),
		// A bound just under the float32 ULP of data in [0.5, 1): at f32 only
		// exact elements keep it, so a bound check loosened by one ULP lets a
		// one-ULP error through.
		{"under-one-ulp", []int{4096}, math.Nextafter(0x1p-24, 0), fill(func(i int) float64 {
			return 0.75 + 0.2*math.Sin(float64(i)/50)
		})},
		{"below-float32-resolution", []int{2000}, 1e-9, fill(func(i int) float64 { return 1 + math.Sin(float64(i)/100)*1e-3 })},
		{"single-element", []int{1}, 1e-2, fill(func(int) float64 { return 42.5 })},
		{"singleton-dims", []int{1, 1, 128}, 1e-3, fill(func(i int) float64 { return float64(i) / 8 })},
		{"folded-4d", []int{2, 3, 4, 5}, 1e-3, fill(func(i int) float64 { return math.Sin(float64(i)) })},
		{"odd-lengths", []int{7, 5, 3}, 1e-4, fill(func(i int) float64 { return math.Sin(float64(i)) })},
	}
}

// binEdges puts values a few ULPs either side of the quantizers' half-bin
// edges, in [0.5, 1), under a bound one ULP below a multiple of those values'
// ULP: an error of exactly the bound plus its ULP is then reachable, so a
// bound widened by one ULP lets some through. Each edge value follows an
// exact bin centre far from the one before, which sz cannot predict and so
// stores verbatim: the edge is predicted from a known value.
func binEdges() boundClass {
	const ulp = 0x1p-53
	eb := math.Nextafter(math.Round(1e-6/ulp)*ulp, 0)
	vals := make([]float64, 0, 1024)
	for j := 0; j < 512; j++ {
		centre := math.Round((0.55+0.3*float64(j%2)+1e-4*float64(j%97))/(2*eb)) * (2 * eb)
		edge := centre + eb + float64(j%9-4)*ulp
		vals = append(vals, centre, edge)
	}
	return boundClass{"bin-edges", []int{len(vals)}, eb, func(int) []float64 { return vals }}
}

// TestErrorBoundHolds: every codec keeps its bound on every element of every
// adversarial class, and on fixed-seed random arrays of any shape.
func TestErrorBoundHolds(t *testing.T) { eachCodec(t, boundHolds) }

func boundHolds(t *testing.T, name string) {
	h := newHandle(t, name, 2)
	for _, c := range boundClasses() {
		t.Run(c.name, func(t *testing.T) {
			if err := boundKept(h, convert(c.values(elems(c.dims))), c.dims, c.eb); err != nil {
				t.Fatal(err)
			}
		})
	}
	quickBoundOf(t, name)
}

// quickBound is the bound property for one codec, in the subtest named after
// the element type, as eachCodec names them.
func quickBound(t *testing.T, name string) {
	t.Run("f32", func(t *testing.T) { quickBoundOf(t, name) })
}

// quickBoundOf checks the bound on up to 2000 normal values at magnitudes
// 10^±4, shaped 1-, 2- or 3-D, under a bound of 1 down to 10^-5 — so some
// bounds sit below the data's resolution.
func quickBoundOf(t *testing.T, name string) {
	h := newHandle(t, name, 2)
	f := func(seed int64, ebSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(2000) + 1
		dims := [][]int{{n}, {n/7 + 1, 7}, {n/35 + 1, 5, 7}}[rng.Intn(3)]
		data := make([]float32, elems(dims))
		for i := range data {
			data[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
		}
		eb := math.Pow(10, -float64(int(ebSel)%6))
		err := boundKept(h, data, dims, eb)
		if err != nil {
			t.Logf("seed %d dims %v eb %g: %v", seed, dims, eb, err)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.4, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func bitsOf(vals []float32) []byte {
	var out []byte
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out
}

// golden is one committed codec stream and the bits it decodes to.
type golden struct {
	codec, path   string
	stream, image []byte
}

// committedGoldens reads every stream sz and zfp commit with a decoded image
// (a retired configuration has none: the codec's tests pin its refusal).
func committedGoldens(t *testing.T) []golden {
	var out []golden
	for _, g := range []struct{ codec, glob string }{
		{"sz", "../sz/testdata/golden_*.szs"},
		{"zfp", "../zfp/testdata/golden_*.zfs"},
	} {
		paths, _ := filepath.Glob(g.glob)
		for _, path := range paths {
			recon, err := os.ReadFile(strings.TrimSuffix(path, filepath.Ext(path)) + ".recon")
			if os.IsNotExist(err) {
				continue
			}
			stream, err2 := os.ReadFile(path)
			if err != nil || err2 != nil {
				t.Fatal(err, err2)
			}
			// recon: uint32 ndims, ndims x uint64 dims, raw element bits.
			nd := int(binary.LittleEndian.Uint32(recon))
			out = append(out, golden{g.codec, path, stream, recon[4+8*nd:]})
		}
	}
	// zfp: three of the current encoder, three of the pre-search one.
	if len(out) != 4+6 {
		t.Fatalf("%d committed goldens with an image, want 4 sz + 6 zfp", len(out))
	}
	return out
}

// TestDecompressIntoMatchesGoldens: DecompressInto is Decompress landing in
// dst, on a fresh stream of every codec and on every committed golden, which
// both decode to its committed image, at 1, 2 and 8 workers.
func TestDecompressIntoMatchesGoldens(t *testing.T) { eachCodec(t, intoMatches) }

func intoMatches(t *testing.T, name string) {
	data, dims := handleField()
	fresh, err := newHandle(t, name, 1).CompressAppend(nil, data, dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	goldens := []golden{{stream: fresh}}
	for _, g := range committedGoldens(t) {
		if g.codec == name {
			goldens = append(goldens, g)
		}
	}
	for _, g := range goldens {
		for _, workers := range []int{1, 2, 8} {
			if got := checkInto(t, newHandle(t, name, workers), g.stream); g.image != nil && !bytes.Equal(got, g.image) {
				t.Fatalf("%s workers=%d: the decoded image differs from the committed one", g.path, workers)
			}
		}
	}
}

// checkInto holds DecompressInto to Decompress on one stream: into a
// NaN-poisoned dst of the array's size — and into one with room to spare —
// the result is dst's own memory and bit-identical, so every element was
// written; a dst one element short is left as it was and a new array with the
// same bits returned. It returns Decompress's bits.
func checkInto(t *testing.T, h compress.Handle, stream []byte) []byte {
	t.Helper()
	want, wantDims, err := h.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := func(n, capacity int) []float32 {
		dst := make([]float32, n, capacity)
		for i := range dst[:capacity] {
			dst[:capacity][i] = float32(math.NaN())
		}
		return dst
	}
	n := len(want)
	for _, dst := range [][]float32{poisoned(n, n), poisoned(0, n+7), poisoned(n-1, n-1)} {
		got, dims, err := h.DecompressInto(dst, stream)
		if err != nil {
			t.Fatalf("cap %d: %v", cap(dst), err)
		}
		if !bytes.Equal(bitsOf(got), bitsOf(want)) || !slices.Equal(dims, wantDims) {
			t.Fatalf("cap %d: DecompressInto differs from Decompress", cap(dst))
		}
		landed := &got[0] == &dst[:1][0]
		if fits := cap(dst) >= n; landed != fits {
			t.Fatalf("cap %d for %d elements: landed in dst = %v", cap(dst), n, landed)
		}
		if !landed && slices.ContainsFunc(dst, func(v float32) bool { return v == v }) {
			t.Fatalf("cap %d: a short dst was written", cap(dst))
		}
	}
	return bitsOf(want)
}

// A warm one-worker handle allocates this many times per call: the small
// constant the Handle doc promises, none of it sized by the array.
const warmCompressAllocs, warmDecompressAllocs = 1, 2

// TestSteadyStateAllocs: a warm handle's CompressAppend into a reused stream
// and DecompressInto a reused array allocate the promised count at one worker;
// more workers add only the fan-out's goroutines, never per-partition scratch.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime bookkeeping inflates alloc counts")
	}
	eachCodec(t, steady)
}

func steady(t *testing.T, name string) {
	data, dims := handleField()
	for _, workers := range []int{1, 8} {
		h := newHandle(t, name, workers)
		stream, err := h.CompressAppend(nil, data, dims, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := h.DecompressInto(nil, stream)
		if err != nil {
			t.Fatal(err)
		}
		c := minAllocs(func() { stream, _ = h.CompressAppend(stream[:0], data, dims, 1e-3) })
		d := minAllocs(func() { out, _, _ = h.DecompressInto(out, stream) })
		fanOut := float64(3 * (workers - 1))
		if c > warmCompressAllocs+fanOut || d > warmDecompressAllocs+fanOut {
			t.Errorf("workers=%d: warm compress allocates %.0f times, decompress %.0f; want <= %.0f and %.0f",
				workers, c, d, warmCompressAllocs+fanOut, warmDecompressAllocs+fanOut)
		}
	}
}

// minAllocs is the steady-state allocation count of f: the least of five
// single-run measurements. A GC between iterations empties the codecs'
// sync.Pools and the refills inflate whichever measurement it lands in; a
// real regression raises every reading.
func minAllocs(f func()) float64 {
	lo := testing.AllocsPerRun(1, f)
	for i := 0; i < 4; i++ {
		lo = min(lo, testing.AllocsPerRun(1, f))
	}
	return lo
}

// TestScalingGate is the CI scaling gate scripts/check.sh runs: on a host
// with at least 8 cores, 8-worker compression reaches >= 3x the 1-worker
// throughput, for every codec. Opt-in through
// LCPIO_SCALING_GATE, because wall-time assertions are meaningless on loaded
// or narrow machines.
func TestScalingGate(t *testing.T) {
	if os.Getenv("LCPIO_SCALING_GATE") == "" {
		t.Skip("scaling gate is opt-in: set LCPIO_SCALING_GATE=1 (scripts/check.sh does)")
	}
	if runtime.NumCPU() < 8 {
		t.Skipf("host has %d CPUs; the 8-worker >= 3x gate needs 8 cores", runtime.NumCPU())
	}
	dims := []int{8, 512, 512}
	data := make([]float32, dims[0]*dims[1]*dims[2])
	for i := range data {
		data[i] = float32(math.Sin(float64(i%dims[2])/56) + 0.015*float64((i/dims[2])%dims[1]))
	}
	for _, name := range compress.Names() {
		t.Run(name, func(t *testing.T) {
			throughput := func(workers int) float64 {
				h := newHandle(t, name, workers)
				dst, err := h.Compress(data, dims, 1e-3) // warm lanes and dst
				if err != nil {
					t.Fatal(err)
				}
				res := testing.Benchmark(func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						dst, _ = h.CompressAppend(dst[:0], data, dims, 1e-3)
					}
				})
				return float64(4*len(data)*res.N) / res.T.Seconds()
			}
			t1, t8 := throughput(1), throughput(8)
			t.Logf("%s compress: 1 worker %.1f MB/s, 8 workers %.1f MB/s (%.2fx)", name, t1/1e6, t8/1e6, t8/t1)
			if t8 < 3*t1 {
				t.Fatalf("8-worker compress is %.2fx the 1-worker throughput; the gate requires >= 3x", t8/t1)
			}
		})
	}
}

// The per-codec names of the bound property.

func TestQuickErrorBoundInvariant(t *testing.T) { quickBound(t, "sz") }
func TestQuickToleranceInvariant(t *testing.T)  { quickBound(t, "zfp") }
