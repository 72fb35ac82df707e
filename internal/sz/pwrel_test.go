package sz

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lcpio/internal/fpdata"
	"lcpio/internal/lossless"
)

// maxPointwiseRelError reports max_i |a_i - b_i| / |a_i| over nonzero
// entries, the acceptance metric for pointwise-relative streams.
func maxPointwiseRelError(orig, recon []float32) float64 {
	m := 0.0
	for i := range orig {
		o := float64(orig[i])
		if o == 0 || math.IsNaN(o) || math.IsInf(o, 0) {
			continue
		}
		d := math.Abs(float64(recon[i])-o) / math.Abs(o)
		if d > m {
			m = d
		}
	}
	return m
}

func pwRoundTrip(t *testing.T, data []float32, dims []int, rel float64) []byte {
	t.Helper()
	comp, err := CompressPWRel(data, dims, rel)
	if err != nil {
		t.Fatalf("CompressPWRel: %v", err)
	}
	out, gotDims, err := DecompressPWRel(comp)
	if err != nil {
		t.Fatalf("DecompressPWRel: %v", err)
	}
	if len(out) != len(data) || len(gotDims) != len(dims) {
		t.Fatalf("shape mismatch")
	}
	if e := maxPointwiseRelError(data, out); e > rel {
		t.Fatalf("pointwise relative bound violated: %g > %g", e, rel)
	}
	// Zeros and non-finite values round-trip exactly.
	for i, v := range data {
		f := float64(v)
		if f == 0 && out[i] != 0 {
			t.Fatalf("zero not preserved at %d: %v", i, out[i])
		}
		if math.IsNaN(f) && !math.IsNaN(float64(out[i])) {
			t.Fatalf("NaN not preserved at %d", i)
		}
	}
	return comp
}

func TestPWRelSmoothPositive(t *testing.T) {
	data := make([]float32, 4000)
	for i := range data {
		data[i] = float32(math.Exp(math.Sin(float64(i)/50)) * 100)
	}
	comp := pwRoundTrip(t, data, []int{4000}, 1e-3)
	if r := float64(len(data)*4) / float64(len(comp)); r < 2 {
		t.Errorf("smooth positive data should compress >2x under pwrel, got %.2f", r)
	}
}

func TestPWRelMixedSigns(t *testing.T) {
	data := make([]float32, 2000)
	for i := range data {
		data[i] = float32(math.Sin(float64(i)/30)) * 50
	}
	pwRoundTrip(t, data, []int{2000}, 1e-2)
}

func TestPWRelWideDynamicRange(t *testing.T) {
	// Six orders of magnitude: the case pointwise-relative mode exists
	// for (an absolute bound would destroy the small values).
	data := make([]float32, 1000)
	for i := range data {
		data[i] = float32(math.Pow(10, float64(i%7)-3) * (1 + 0.1*math.Sin(float64(i))))
	}
	comp := pwRoundTrip(t, data, []int{1000}, 1e-3)
	out, _, _ := DecompressPWRel(comp)
	// Even the smallest values keep 3 digits.
	for i, v := range data {
		if v == 0 {
			continue
		}
		relErr := math.Abs(float64(out[i])-float64(v)) / math.Abs(float64(v))
		if relErr > 1e-3 {
			t.Fatalf("small value %g lost precision: rel err %g", v, relErr)
		}
	}
}

func TestPWRelZerosAndSpecials(t *testing.T) {
	data := []float32{0, 1, -1, 0, float32(math.NaN()), float32(math.Inf(1)),
		1e-30, -1e30, 0, 5, 0, 0, -2.5, 1e-15, 3, 7}
	comp := pwRoundTrip(t, data, []int{16}, 1e-2)
	out, _, err := DecompressPWRel(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(out[5]), 1) {
		t.Errorf("+Inf not preserved: %v", out[5])
	}
}

func TestPWRelValidation(t *testing.T) {
	data := []float32{1, 2, 3, 4}
	for _, rel := range []float64{0, -1, 1, 1.5, math.NaN()} {
		if _, err := CompressPWRel(data, []int{4}, rel); err == nil {
			t.Errorf("rel=%v accepted", rel)
		}
	}
	if _, err := CompressPWRel(data, []int{5}, 1e-3); err == nil {
		t.Error("dims mismatch accepted")
	}
	if _, _, err := DecompressPWRel([]byte("garbage stream bytes")); err == nil {
		t.Error("garbage accepted")
	}
}

// TestPWRelTypeMismatch: the container's element-kind word admits float32
// only; a stream stamped float64 (older builds could write one) is refused by
// kind, not decoded as float32.
func TestPWRelTypeMismatch(t *testing.T) {
	c32, err := CompressPWRel([]float32{1, 2, 3, 4}, []int{4}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := lossless.Decompress(c32)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[8:], 64) // after magic and version
	_, _, err = DecompressPWRel(lossless.Compress(raw, lossless.Defaults()))
	if err == nil || errors.Is(err, ErrCorrupt) {
		t.Errorf("float64-stamped pwrel stream: %v, want a kind refusal", err)
	}
}

func TestPackUnpackBools(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 64, 65} {
		bs := make([]bool, n)
		for i := range bs {
			bs[i] = i%3 == 0
		}
		got := unpackBools(packBools(bs), n)
		for i := range bs {
			if got[i] != bs[i] {
				t.Fatalf("n=%d mismatch at %d", n, i)
			}
		}
	}
}

func TestPWRelOnHACC(t *testing.T) {
	spec, _ := fpdata.Lookup("HACC", "")
	f := fpdata.Generate(spec, spec.ScaleFor(1<<14), 6)
	pwRoundTrip(t, f.Data, f.Dims, 1e-2)
}

// Property: for arbitrary finite data and bounds, the pointwise relative
// bound holds — including at bounds near float32 resolution where the
// verify pass must catch cast rounding.
func TestQuickPWRelInvariant(t *testing.T) {
	f := func(seed int64, relExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(1200) + 1
		data := make([]float32, n)
		for i := range data {
			switch rng.Intn(10) {
			case 0:
				data[i] = 0
			default:
				data[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6)))
			}
		}
		rel := math.Pow(10, -float64(relExp%6)-1) // 1e-1 .. 1e-6
		comp, err := CompressPWRel(data, []int{n}, rel)
		if err != nil {
			return false
		}
		out, _, err := DecompressPWRel(comp)
		if err != nil || len(out) != n {
			return false
		}
		return maxPointwiseRelError(data, out) <= rel
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.3, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestDecompressIntoRefusesPWRel: a pointwise-relative stream is its own
// format behind its own entry points; the Into path refuses it as Decompress
// does, leaving dst alone.
func TestDecompressIntoRefusesPWRel(t *testing.T) {
	stream, err := CompressPWRel(goldenNoisy32([]int{4096}), []int{4096}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecompressPWRel(stream); err != nil {
		t.Fatal(err)
	}
	dst := []float32{float32(math.NaN())}
	_, _, err = NewHandle(1).DecompressInto(dst[:0], stream)
	if _, _, derr := Decompress(stream); err == nil || derr == nil {
		t.Fatalf("pw-rel stream decoded as a plain one: Into %v, Decompress %v", err, derr)
	}
	if dst[0] == dst[0] {
		t.Fatal("refusal wrote into dst")
	}
}

func BenchmarkCompressPWRel(b *testing.B) {
	data := make([]float32, 1<<17)
	for i := range data {
		data[i] = float32(math.Exp(math.Sin(float64(i)/60)) * 10)
	}
	b.SetBytes(int64(len(data) * 4))
	for i := 0; i < b.N; i++ {
		if _, err := CompressPWRel(data, []int{len(data)}, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}
