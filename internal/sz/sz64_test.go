package sz

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFloat64RoundTrip1D(t *testing.T) {
	data := make([]float64, 5000)
	for i := range data {
		data[i] = math.Sin(float64(i) / 30)
	}
	if r := ratio(t, data, []int{5000}, 1e-6); r < 3 {
		t.Fatalf("smooth doubles at 1e-6: ratio %.2f, want >= 3", r)
	}
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
	if r := ratio(t, data, []int{2000}, 1e-9); r < 1.5 {
		t.Errorf("1e-9 bound on smooth doubles should still compress: ratio %.2f", r)
	}
}

// TestFloat64RoundTrip3D: the 3-D predictor is what compresses this field —
// read as one row it barely compresses at all.
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
	r3, r1 := ratio(t, data, []int{d, d, d}, 1e-8), ratio(t, data, []int{d * d * d}, 1e-8)
	if r3 < 15 || r1 > 2 {
		t.Fatalf("3-D ratio %.2f, as 1-D %.2f: want >= 15 and <= 2", r3, r1)
	}
}

// TestTypeMismatchRejected: a stream decoded at the other precision is
// refused by its kind word, and the error says which precision it holds.
func TestTypeMismatchRejected(t *testing.T) {
	c32, err := Compress([]float32{1, 2, 3, 4}, []int{4}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	c64, err := Compress64([]float64{1, 2, 3, 4}, []int{4}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decompress64(c32); err == nil || !strings.Contains(err.Error(), "holds float32 values") {
		t.Errorf("float32 stream through Decompress64: %v", err)
	}
	if _, _, err := Decompress(c64); err == nil || !strings.Contains(err.Error(), "holds float64 values") {
		t.Errorf("float64 stream through Decompress: %v", err)
	}
}

// TestFloat64ExtremeValues: doubles beyond the quantizer's range come back
// exactly.
func TestFloat64ExtremeValues(t *testing.T) {
	data := []float64{0, math.MaxFloat64, -math.MaxFloat64, 1e-300, -1e-300,
		1, -1, math.MaxFloat32 * 10, 0, 0, 0, 0, 0, 0, 0, 0}
	out := decoded(t, data, []int{len(data)}, 1e-3)
	for _, i := range []int{1, 2, 7} {
		if out[i] != data[i] {
			t.Errorf("element %d: %g decoded as %g", i, data[i], out[i])
		}
	}
}

// TestQuickFloat64ErrorBound: the float64 bound, down to 1e-9, holds at a
// partition granularity of 64 elements, where every array crosses partition
// borders — a plan the compress suite cannot set.
func TestQuickFloat64ErrorBound(t *testing.T) {
	saved := partTargetElems
	partTargetElems = 64
	defer func() { partTargetElems = saved }()
	f := func(seed int64, ebExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]float64, rng.Intn(1500)+1)
		for i := range data {
			data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
		}
		return withinBound(data, []int{len(data)}, math.Pow(10, -float64(ebExp%10)))
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
