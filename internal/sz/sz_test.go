package sz

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lcpio/internal/fpdata"
	"lcpio/internal/wire"
)

// The bound, worker identity, Into and hostile-bytes contracts every codec
// shares are the compress package's conformance suite, which runs them on the
// same classes as the tests below; these hold what only sz claims on them.

// ratio is data's raw size over its one-worker stream's at eb.
func ratio(t *testing.T, data []float32, dims []int, eb float64) float64 {
	t.Helper()
	stream, err := NewHandle(1).Compress(data, dims, eb)
	if err != nil {
		t.Fatal(err)
	}
	return float64(len(data)*4) / float64(len(stream))
}

// decoded is data back through its one-worker stream at eb.
func decoded(t *testing.T, data []float32, dims []int, eb float64) []float32 {
	t.Helper()
	stream, err := NewHandle(1).Compress(data, dims, eb)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := NewHandle(1).Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestConstantField(t *testing.T) {
	data := make([]float32, 4096)
	for i := range data {
		data[i] = 3.25
	}
	if r := ratio(t, data, []int{4096}, 1e-3); r < 8 {
		t.Fatalf("constant field should compress to <= 2048 bytes, got ratio %.1f", r)
	}
}

func TestLinearRamp1D(t *testing.T) {
	data := make([]float32, 10000)
	for i := range data {
		data[i] = float32(i) * 0.001
	}
	if r := ratio(t, data, []int{10000}, 1e-4); r < 10 {
		t.Fatalf("linear ramp should compress >10x, got %.1f", r)
	}
}

// TestSmooth2D: the 2-D Lorenzo predictor pays — the same values read as one
// long row compress to barely half as much.
func TestSmooth2D(t *testing.T) {
	d1, d2 := 64, 128
	data := make([]float32, d1*d2)
	for i := 0; i < d1; i++ {
		for j := 0; j < d2; j++ {
			data[i*d2+j] = float32(math.Sin(float64(i)/9) * math.Cos(float64(j)/11))
		}
	}
	r2, r1 := ratio(t, data, []int{d1, d2}, 1e-3), ratio(t, data, []int{d1 * d2}, 1e-3)
	if r2 < 1.5*r1 {
		t.Fatalf("2-D ratio %.2f vs %.2f as 1-D; want the 2-D predictor 1.5x ahead", r2, r1)
	}
}

func TestSmooth3D(t *testing.T) {
	d := 24
	data := make([]float32, d*d*d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			for k := 0; k < d; k++ {
				data[(i*d+j)*d+k] = float32(math.Sin(float64(i+j+k) / 5))
			}
		}
	}
	if r := ratio(t, data, []int{d, d, d}, 1e-4); r < 15 {
		t.Fatalf("smooth 3-D ratio %.2f; want >= 15", r)
	}
}

func TestErrorBoundSweep(t *testing.T) {
	spec, _ := fpdata.Lookup("NYX", "")
	f := fpdata.Generate(spec, 32, 5)
	lo, hi := f.Range()
	prev := math.Inf(1)
	for _, rel := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
		r := ratio(t, f.Data, f.Dims, rel*float64(hi-lo))
		if r > prev {
			t.Errorf("finer bound %g compressed better (%.2f > %.2f)", rel, r, prev)
		}
		prev = r
	}
}

// TestRandomNoiseStillBounded: noise far wider than the quantizer's range is
// stored verbatim, and the stream still fits in the raw bytes.
func TestRandomNoiseStillBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]float32, 5000)
	for i := range data {
		data[i] = float32(rng.NormFloat64() * 1e6)
	}
	if r := ratio(t, data, []int{5000}, 0.5); r < 1 {
		t.Fatalf("noise expanded: ratio %.3f", r)
	}
}

// TestExtremeValues: values beyond the quantizer's range are unpredictable
// and come back exactly.
func TestExtremeValues(t *testing.T) {
	data := []float32{0, math.MaxFloat32, -math.MaxFloat32, 1e-38, -1e-38,
		1, -1, 65504, 3.4e38, -3.4e38, 0, 0, 0, 0, 0, 0}
	out := decoded(t, data, []int{len(data)}, 1e-3)
	for _, i := range []int{1, 2, 8, 9} {
		if out[i] != data[i] {
			t.Errorf("element %d: %g decoded as %g", i, data[i], out[i])
		}
	}
}

// TestSingleElement: one element is one partition.
func TestSingleElement(t *testing.T) {
	stream, err := NewHandle(0).Compress([]float32{42.5}, []int{1}, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if parts := partitionPayloads(t, stream); len(parts) != 1 {
		t.Fatalf("%d partitions for one element", len(parts))
	}
}

func TestHACCStyle1D(t *testing.T) {
	spec, _ := fpdata.Lookup("HACC", "")
	f := fpdata.Generate(spec, 20000, 9)
	lo, hi := f.Range()
	if r := ratio(t, f.Data, f.Dims, 1e-2*float64(hi-lo)); r < 6 {
		t.Fatalf("HACC-like 1-D ratio %.2f; want >= 6", r)
	}
}

func TestCESMStyle3D(t *testing.T) {
	spec, _ := fpdata.Lookup("CESM-ATM", "")
	f := fpdata.Generate(spec, 32, 9)
	lo, hi := f.Range()
	if r := ratio(t, f.Data, f.Dims, 1e-3*float64(hi-lo)); r < 9 {
		t.Fatalf("CESM-like 3-D ratio %.2f; want >= 9", r)
	}
}

// TestLeadingSingletonDimsTreatedAs1D: HACC's shape is 1 x N; it takes the
// 1-D path, so its stream is the 1-D one plus the extra dimension's word.
func TestLeadingSingletonDimsTreatedAs1D(t *testing.T) {
	data := make([]float32, 2048)
	for i := range data {
		data[i] = float32(i % 17)
	}
	a, err := NewHandle(0).Compress(data, []int{1, 2048}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHandle(0).Compress(data, []int{2048}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b)+8 {
		t.Fatalf("1 x 2048 stream %d bytes, 2048 stream %d: want one u64 apart", len(a), len(b))
	}
}

func TestEffectiveDim(t *testing.T) {
	cases := []struct {
		dims []int
		want int
	}{
		{[]int{100}, 1}, {[]int{1, 100}, 1}, {[]int{1, 1, 100}, 1},
		{[]int{4, 4}, 2}, {[]int{1, 4, 4}, 2}, {[]int{4, 4, 4}, 3},
		{[]int{2, 2, 2, 2}, 3},
	}
	for _, c := range cases {
		if got, _, _, _ := wire.Collapse(c.dims); got != c.want {
			t.Errorf("effectiveDim(%v) = %d, want %d", c.dims, got, c.want)
		}
	}
}

func TestSquash3FoldsExtraDims(t *testing.T) {
	_, d0, d1, d2 := wire.Collapse([]int{2, 3, 4, 5})
	if d0 != 6 || d1 != 4 || d2 != 5 {
		t.Fatalf("squash3: %d %d %d", d0, d1, d2)
	}
}

// TestInvalidInputs: a shape that does not fit the data and a bound that is not
// positive and finite are refused with a sz error, though the shape caps
// are package wire's.
func TestInvalidInputs(t *testing.T) {
	data := []float32{1, 2, 3}
	for _, c := range []struct {
		dims []int
		eb   float64
	}{
		{[]int{4}, 1e-3}, {nil, 1e-3}, {[]int{3}, 0}, {[]int{3}, -1}, {[]int{3}, math.NaN()},
		{[]int{-3}, 1e-3}, {[]int{1, 1, 1, 1, 1, 1, 1, 1, 3}, 1e-3}, {[]int{3, 0}, 1e-3},
	} {
		if _, err := NewHandle(0).Compress(data, c.dims, c.eb); err == nil || !strings.HasPrefix(err.Error(), "sz: ") {
			t.Errorf("dims %v eb %g: got %v, want an sz error", c.dims, c.eb, err)
		}
	}
}

// TestDecompressCorrupt: a truncated or garbage stream is ErrCorrupt.
func TestDecompressCorrupt(t *testing.T) {
	data := make([]float32, 1000)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 10))
	}
	comp, err := NewHandle(0).Compress(data, []int{1000}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{comp[:0], comp[:1], comp[:len(comp)/2], comp[:len(comp)-1], []byte("definitely not a stream")} {
		if _, _, err := NewHandle(0).Decompress(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%d-byte stream: %v, want ErrCorrupt", len(bad), err)
		}
	}
}

// TestQuickErrorBoundMultiDim: the bound on random smooth 2-D fields holds at
// a partition granularity of 64 elements, where every field crosses partition
// borders in both directions — a plan the compress suite cannot set.
func TestQuickErrorBoundMultiDim(t *testing.T) {
	saved := partTargetElems
	partTargetElems = 64
	defer func() { partTargetElems = saved }()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d1, d2 := rng.Intn(30)+2, rng.Intn(30)+2
		data := make([]float32, d1*d2)
		for i := range data {
			data[i] = float32(math.Sin(float64(i)/3) * 100)
		}
		return withinBound(data, []int{d1, d2}, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.3, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// withinBound reports whether data decodes within eb of itself under the
// partition granularity the caller set.
func withinBound(data []float32, dims []int, eb float64) bool {
	stream, err := NewHandle(2).Compress(data, dims, eb)
	if err != nil {
		return false
	}
	out, _, err := NewHandle(2).Decompress(stream)
	if err != nil || len(out) != len(data) {
		return false
	}
	for i := range out {
		if !(math.Abs(float64(out[i])-float64(data[i])) <= eb) {
			return false
		}
	}
	return true
}

// TestIdempotentRecompression: a reconstruction sits on the quantizer's
// grid, so compressing it again at the same bound costs no more than the
// original did.
func TestIdempotentRecompression(t *testing.T) {
	data := make([]float32, 2000)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 20))
	}
	const eb = 1e-3
	out := decoded(t, data, []int{2000}, eb)
	if r1, r2 := ratio(t, data, []int{2000}, eb), ratio(t, out, []int{2000}, eb); r2 < r1 {
		t.Fatalf("recompressed reconstruction ratio %.2f < original %.2f", r2, r1)
	}
}

// BenchmarkDecompress2D decodes a 2-D partition plan, which no fpdata field
// reaches on its own (every generator is 1-D or 3-D): the CESM climate stack
// read as one tall sheet, on one worker.
func BenchmarkDecompress2D(b *testing.B) {
	spec, _ := fpdata.Lookup("CESM-ATM", "")
	f := fpdata.Generate(spec, spec.ScaleFor(1<<20), 1)
	lo, hi := f.Range()
	h := NewHandle(1)
	comp, err := h.Compress(f.Data, []int{f.Dims[0] * f.Dims[1], f.Dims[2]}, 1e-3*float64(hi-lo))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(f.SizeBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := h.Decompress(comp); err != nil {
			b.Fatal(err)
		}
	}
}
