package sz

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
		t.Fatalf("len %d, want %d", len(out), len(data))
	}
	for i := range dims {
		if gotDims[i] != dims[i] {
			t.Fatalf("dims %v want %v", gotDims, dims)
		}
	}
	if e := maxAbsErr64(data, out); e > eb {
		t.Fatalf("float64 bound violated: %g > %g", e, eb)
	}
	return comp
}

func TestFloat64RoundTrip1D(t *testing.T) {
	data := make([]float64, 5000)
	for i := range data {
		data[i] = math.Sin(float64(i) / 30)
	}
	roundTrip64(t, data, []int{5000}, 1e-6)
}

func TestFloat64TighterThanFloat32Resolution(t *testing.T) {
	// A bound of 1e-9 on O(1) values is unrepresentable in float32 —
	// precisely the case the double path exists for. Keep the per-step
	// gradient within the 2^16-interval quantizer range (as real SZ
	// requires at such bounds).
	data := make([]float64, 2000)
	for i := range data {
		data[i] = 1 + math.Sin(float64(i)/100)*1e-3
	}
	eb := 1e-9
	comp := roundTrip64(t, data, []int{2000}, eb)
	if r := float64(len(data)*8) / float64(len(comp)); r < 1.5 {
		t.Errorf("1e-9 bound on smooth doubles should still compress: ratio %.2f", r)
	}
}

func TestFloat64RoundTrip3D(t *testing.T) {
	d := 20
	data := make([]float64, d*d*d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			for k := 0; k < d; k++ {
				data[(i*d+j)*d+k] = math.Sin(float64(i)/6)*math.Cos(float64(j)/5) + float64(k)*0.01
			}
		}
	}
	roundTrip64(t, data, []int{d, d, d}, 1e-8)
}

func TestTypeMismatchRejected(t *testing.T) {
	f32 := []float32{1, 2, 3, 4}
	f64 := []float64{1, 2, 3, 4}
	c32, err := Compress(f32, []int{4}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	c64, err := Compress64(f64, []int{4}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decompress64(c32); err == nil {
		t.Error("float32 stream accepted by Decompress64")
	}
	if _, _, err := Decompress(c64); err == nil {
		t.Error("float64 stream accepted by Decompress")
	}
}

func TestFloat64ExtremeValues(t *testing.T) {
	data := []float64{0, math.MaxFloat64, -math.MaxFloat64, 1e-300, -1e-300,
		1, -1, math.MaxFloat32 * 10, 0, 0, 0, 0, 0, 0, 0, 0}
	roundTrip64(t, data, []int{len(data)}, 1e-3)
}

func TestQuickFloat64ErrorBound(t *testing.T) {
	f := func(seed int64, ebExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(1500) + 1
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
		}
		eb := math.Pow(10, -float64(ebExp%10)) // 1 .. 1e-9
		comp, err := Compress64(data, []int{n}, eb)
		if err != nil {
			return false
		}
		out, _, err := Decompress64(comp)
		return err == nil && maxAbsErr64(data, out) <= eb
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.3, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompress64(b *testing.B) {
	data := make([]float64, 1<<18)
	for i := range data {
		data[i] = math.Sin(float64(i) / 25)
	}
	b.SetBytes(int64(len(data) * 8))
	for i := 0; i < b.N; i++ {
		if _, err := Compress64(data, []int{len(data)}, 1e-8); err != nil {
			b.Fatal(err)
		}
	}
}
