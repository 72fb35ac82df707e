package zfp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func maxAbsErr64(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

func roundTrip64(t *testing.T, data []float64, dims []int, eb float64) []byte {
	t.Helper()
	comp, err := Compress64(data, dims, eb)
	if err != nil {
		t.Fatalf("Compress64: %v", err)
	}
	out, gotDims, err := Decompress64(comp)
	if err != nil {
		t.Fatalf("Decompress64: %v", err)
	}
	if len(out) != len(data) {
		t.Fatalf("len %d want %d", len(out), len(data))
	}
	for i := range dims {
		if gotDims[i] != dims[i] {
			t.Fatalf("dims %v want %v", gotDims, dims)
		}
	}
	if e := maxAbsErr64(data, out); e > eb {
		t.Fatalf("float64 tolerance violated: %g > %g", e, eb)
	}
	return comp
}

func TestFloat64Smooth3D(t *testing.T) {
	d := 16
	data := make([]float64, d*d*d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			for k := 0; k < d; k++ {
				data[(i*d+j)*d+k] = math.Sin(float64(i)/6)*math.Cos(float64(j)/5) + math.Sin(float64(k)/7)
			}
		}
	}
	comp := roundTrip64(t, data, []int{d, d, d}, 1e-4)
	if r := float64(len(data)*8) / float64(len(comp)); r < 3 {
		t.Errorf("float64 smooth 3-D ratio %.2f too low", r)
	}
}

func TestFloat64SubFloat32Tolerance(t *testing.T) {
	// Tolerances below float32 resolution: the double path must hold them.
	d := 12
	data := make([]float64, d*d*d)
	for i := range data {
		data[i] = 1 + math.Sin(float64(i)/50)
	}
	roundTrip64(t, data, []int{d, d, d}, 1e-11)
}

func TestFloat64HugeExponents(t *testing.T) {
	// Values beyond float32 range exercise the widened exponent field.
	data := []float64{1e300, -1e300, 1e-300, 0, 2.5e205, -3.7e-250, 1e308, -1e308,
		0, 0, 0, 0, 0, 0, 0, 0}
	roundTrip64(t, data, []int{len(data)}, 1e290)
}

func TestFloat64FixedRate(t *testing.T) {
	data := make([]float64, 512)
	for i := range data {
		data[i] = math.Sin(float64(i) / 20)
	}
	comp, err := compressFixedRate(data, []int{512}, 20)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Decompress64(comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 512 {
		t.Fatalf("len %d", len(out))
	}
	// 20 bpv on smooth doubles: small but nonzero error.
	if e := maxAbsErr64(data, out); e > 1e-2 {
		t.Errorf("20 bpv error %g too large", e)
	}
}

func TestZfpTypeMismatchRejected(t *testing.T) {
	f32 := make([]float32, 16)
	f64 := make([]float64, 16)
	for i := range f32 {
		f32[i] = float32(i)
		f64[i] = float64(i)
	}
	c32, _ := Compress(f32, []int{16}, 1e-3)
	c64, _ := Compress64(f64, []int{16}, 1e-3)
	if _, _, err := Decompress64(c32); err == nil {
		t.Error("float32 stream accepted by Decompress64")
	}
	if _, _, err := Decompress(c64); err == nil {
		t.Error("float64 stream accepted by Decompress")
	}
	// FixedRateReader is float32-only.
	r64, err := compressFixedRate(f64, []int{16}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFixedRateReader(r64); err == nil {
		t.Error("float64 fixed-rate stream accepted by FixedRateReader")
	}
}

func TestQuickFloat64Tolerance(t *testing.T) {
	f := func(seed int64, tolExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(800) + 1
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(11)-5))
		}
		eb := math.Pow(10, -float64(tolExp%10))
		comp, err := Compress64(data, []int{n}, eb)
		if err != nil {
			return false
		}
		out, _, err := Decompress64(comp)
		return err == nil && maxAbsErr64(data, out) <= eb
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
