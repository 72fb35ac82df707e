package zfp

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

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
	if r := ratio(t, data, []int{d, d, d}, 1e-4); r < 3 {
		t.Errorf("float64 smooth 3-D ratio %.2f too low", r)
	}
}

// TestFloat64SubFloat32Tolerance: a tolerance below float32 resolution is
// held by 52-bit blocks that still compress.
func TestFloat64SubFloat32Tolerance(t *testing.T) {
	d := 12
	data := make([]float64, d*d*d)
	for i := range data {
		data[i] = 1 + math.Sin(float64(i)/50)
	}
	if r := ratio(t, data, []int{d, d, d}, 1e-11); r < 1.4 {
		t.Errorf("1e-11 tolerance on smooth doubles: ratio %.2f, want >= 1.4", r)
	}
}

// TestFloat64HugeExponents: exponents beyond float32's range fit the widened
// exponent field — the block maxima come back exactly.
func TestFloat64HugeExponents(t *testing.T) {
	data := []float64{1e300, -1e300, 1e-300, 0, 2.5e205, -3.7e-250, 1e308, -1e308,
		0, 0, 0, 0, 0, 0, 0, 0}
	out := decoded(t, data, []int{len(data)}, 1e290)
	if out[6] != data[6] || out[7] != data[7] {
		t.Errorf("block maxima %g, %g decoded as %g, %g", data[6], data[7], out[6], out[7])
	}
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
	for i, v := range out {
		if math.Abs(v-data[i]) > 1e-2 {
			t.Fatalf("20 bpv: element %d error %g too large", i, math.Abs(v-data[i]))
		}
	}
}

// TestZfpTypeMismatchRejected: a stream decoded at the other precision is
// refused by its kind word, naming the precision it holds; FixedRateReader is
// float32-only.
func TestZfpTypeMismatchRejected(t *testing.T) {
	f32 := make([]float32, 16)
	f64 := make([]float64, 16)
	for i := range f32 {
		f32[i] = float32(i)
		f64[i] = float64(i)
	}
	c32, _ := Compress(f32, []int{16}, 1e-3)
	c64, _ := Compress64(f64, []int{16}, 1e-3)
	if _, _, err := Decompress64(c32); err == nil || !strings.Contains(err.Error(), "holds float32 values") {
		t.Errorf("float32 stream through Decompress64: %v", err)
	}
	if _, _, err := Decompress(c64); err == nil || !strings.Contains(err.Error(), "holds float64 values") {
		t.Errorf("float64 stream through Decompress: %v", err)
	}
	r64, err := compressFixedRate(f64, []int{16}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFixedRateReader(r64); err == nil {
		t.Error("float64 fixed-rate stream accepted by FixedRateReader")
	}
}

// TestQuickFloat64Tolerance: the float64 tolerance, down to 1e-9, holds on
// random 1-D arrays cut into one-block shards.
func TestQuickFloat64Tolerance(t *testing.T) {
	smallShards(t)
	f := func(seed int64, tolExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]float64, rng.Intn(800)+1)
		for i := range data {
			data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(11)-5))
		}
		return withinBound(data, []int{len(data)}, math.Pow(10, -float64(tolExp%10)))
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
