package zfp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func smoothField(d int) []float32 {
	data := make([]float32, d*d*d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			for k := 0; k < d; k++ {
				data[(i*d+j)*d+k] = float32(math.Sin(float64(i)/6)*math.Cos(float64(j)/5) + math.Sin(float64(k)/7))
			}
		}
	}
	return data
}

func TestFixedRateExactSize(t *testing.T) {
	d := 16
	data := smoothField(d)
	for _, rate := range []float64{4, 8, 16, 32} {
		comp, err := CompressFixedRate(data, []int{d, d, d}, rate)
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		// Payload = blocks * budget bits; header is fixed.
		h, err := parseHeader(comp)
		if err != nil {
			t.Fatal(err)
		}
		blocks := (d / 4) * (d / 4) * (d / 4)
		budget := blockBudgetBits(rate, 64)
		wantBits := blocks * budget
		gotBits := (len(comp) - h.payloadOff) * 8
		if gotBits < wantBits || gotBits > wantBits+7 {
			t.Fatalf("rate %v: payload %d bits, want %d (+pad)", rate, gotBits, wantBits)
		}
	}
}

func TestFixedRateRoundTripQuality(t *testing.T) {
	d := 16
	data := smoothField(d)
	var prevErr float64 = math.Inf(1)
	for _, rate := range []float64{6, 12, 24, 40} {
		comp, err := CompressFixedRate(data, []int{d, d, d}, rate)
		if err != nil {
			t.Fatal(err)
		}
		out, dims, err := Decompress(comp)
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		if len(dims) != 3 || dims[0] != d {
			t.Fatalf("dims %v", dims)
		}
		e := 0.0
		for i := range data {
			e = max(e, math.Abs(float64(out[i])-float64(data[i])))
		}
		// Error decreases (weakly) with rate and becomes tiny at 40 bpv.
		if e > prevErr*1.01 {
			t.Errorf("rate %v: error %g above lower-rate error %g", rate, e, prevErr)
		}
		prevErr = e
	}
	if prevErr > 1e-6 {
		t.Errorf("40 bpv error %g should be near-lossless", prevErr)
	}
}

func TestFixedRateZeroBlocks(t *testing.T) {
	data := make([]float32, 256)
	comp, err := CompressFixedRate(data, []int{256}, 8)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 0 {
			t.Fatalf("zero field decoded %v at %d", v, i)
		}
	}
}

func TestFixedRateRejectsNonFinite(t *testing.T) {
	data := make([]float32, 64)
	data[5] = float32(math.NaN())
	if _, err := CompressFixedRate(data, []int{64}, 8); err == nil {
		t.Fatal("NaN accepted in fixed-rate mode")
	}
	fine := make([]float32, 64)
	if _, err := CompressFixedRate(fine, []int{64}, 2); err == nil {
		t.Fatal("rate below minimum accepted")
	}
	if _, err := CompressFixedRate(fine, []int{64}, 100); err == nil {
		t.Fatal("rate above maximum accepted")
	}
}

func TestRandomAccessMatchesFullDecode(t *testing.T) {
	d := 20 // partial blocks included
	data := smoothField(20)
	comp, err := CompressFixedRate(data, []int{d, d, d}, 16)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := NewFixedRateReader(comp)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		i, j, k := rng.Intn(d), rng.Intn(d), rng.Intn(d)
		v, err := fr.ValueAt([]int{i, j, k})
		if err != nil {
			t.Fatalf("ValueAt(%d,%d,%d): %v", i, j, k, err)
		}
		want := full[(i*d+j)*d+k]
		if v != want {
			t.Fatalf("ValueAt(%d,%d,%d) = %v, full decode %v", i, j, k, v, want)
		}
	}
}

func TestRandomAccess1DAnd2D(t *testing.T) {
	data1 := make([]float32, 100)
	for i := range data1 {
		data1[i] = float32(math.Sin(float64(i) / 9))
	}
	comp, err := CompressFixedRate(data1, []int{100}, 12)
	if err != nil {
		t.Fatal(err)
	}
	full, _, _ := Decompress(comp)
	fr, err := NewFixedRateReader(comp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i += 7 {
		v, err := fr.ValueAt([]int{i})
		if err != nil || v != full[i] {
			t.Fatalf("1D ValueAt(%d) = %v err %v, want %v", i, v, err, full[i])
		}
	}

	d1, d2 := 10, 14
	data2 := make([]float32, d1*d2)
	for i := range data2 {
		data2[i] = float32(i % 23)
	}
	comp2, err := CompressFixedRate(data2, []int{d1, d2}, 16)
	if err != nil {
		t.Fatal(err)
	}
	full2, _, _ := Decompress(comp2)
	fr2, err := NewFixedRateReader(comp2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d1; i++ {
		for j := 0; j < d2; j += 3 {
			v, err := fr2.ValueAt([]int{i, j})
			if err != nil || v != full2[i*d2+j] {
				t.Fatalf("2D ValueAt(%d,%d) = %v err %v, want %v", i, j, v, err, full2[i*d2+j])
			}
		}
	}
}

// TestRandomAccessFoldedShapes: shapes with singleton and more than three
// dimensions, which the block grid sees collapsed — every element is found
// where the full decode put it.
func TestRandomAccessFoldedShapes(t *testing.T) {
	for _, dims := range [][]int{{2, 1, 3, 6, 5}, {1, 9, 1, 7}, {1, 1, 30}, {1, 1}} {
		n := 1
		for _, d := range dims {
			n *= d
		}
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(math.Sin(float64(i) / 11))
		}
		comp, err := CompressFixedRate(data, dims, 16)
		if err != nil {
			t.Fatal(err)
		}
		full, _, err := Decompress(comp)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := NewFixedRateReader(comp)
		if err != nil {
			t.Fatal(err)
		}
		coords := make([]int, len(dims))
		for off := 0; off < n; off++ {
			for i, rem := len(dims)-1, off; i >= 0; i-- {
				coords[i], rem = rem%dims[i], rem/dims[i]
			}
			if v, err := fr.ValueAt(coords); err != nil || v != full[off] {
				t.Fatalf("dims %v: ValueAt(%v) = %v err %v, want %v", dims, coords, v, err, full[off])
			}
		}
	}
}

func TestFixedRateReaderValidation(t *testing.T) {
	data := smoothField(8)
	acc, err := Compress(data, []int{8, 8, 8}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFixedRateReader(acc); err == nil {
		t.Fatal("fixed-accuracy stream accepted by fixed-rate reader")
	}
	comp, err := CompressFixedRate(data, []int{8, 8, 8}, 8)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := NewFixedRateReader(comp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.DecodeBlock(-1); err == nil {
		t.Fatal("negative block accepted")
	}
	if _, err := fr.DecodeBlock(fr.NumBlocks()); err == nil {
		t.Fatal("out-of-range block accepted")
	}
	if _, err := fr.ValueAt([]int{1}); err == nil {
		t.Fatal("wrong-arity coords accepted")
	}
	if _, err := fr.ValueAt([]int{0, 0, 99}); err == nil {
		t.Fatal("out-of-range coord accepted")
	}
	if _, err := NewFixedRateReader(comp[:8]); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeFixedAccuracy: "fixed-accuracy", ModeFixedRate: "fixed-rate",
	} {
		if m.String() != want {
			t.Errorf("Mode %d: %q", m, m.String())
		}
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode should render")
	}
}

func TestBudgetedPlaneCodingSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 400; trial++ {
		size := []int{4, 16, 64}[rng.Intn(3)]
		nb := make([]uint64, size)
		for i := range nb {
			nb[i] = rng.Uint64() >> uint(rng.Intn(50)) & ((1 << hiPlane32) - 1)
		}
		kmax := hiPlane32
		budget := rng.Intn(size*20) + 1
		w := newTestWriter()
		encodePlanesBudget(w, nb, kmax, budget)
		if got := len(w.Bytes()); got != (budget+7)/8 {
			t.Fatalf("encoder filled %d bytes, budget %d bits", got, budget)
		}
		got := make([]uint64, size)
		r := newTestReader(w)
		if err := decodePlanesBudget(r, got, kmax, budget); err != nil {
			t.Fatalf("decode: %v", err)
		}
		// Decoded planes must be a prefix approximation: every set bit in
		// got must be set in nb, plane by plane from the top.
		for i := range got {
			if got[i]&^nb[i] != 0 {
				t.Fatalf("decoder fabricated bits: got %#x want subset of %#x", got[i], nb[i])
			}
		}
	}
}

// Property: fixed-rate streams for random finite data always round-trip
// structurally (decode without error, right length).
func TestQuickFixedRateRobust(t *testing.T) {
	f := func(seed int64, rateRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500) + 1
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(rng.NormFloat64() * 1000)
		}
		rate := float64(rateRaw%40) + 6
		comp, err := CompressFixedRate(data, []int{n}, rate)
		if err != nil {
			return false
		}
		out, _, err := Decompress(comp)
		return err == nil && len(out) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.4, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFixedRateCompress(b *testing.B) {
	d := 32
	data := smoothField(d)
	b.SetBytes(int64(len(data) * 4))
	for i := 0; i < b.N; i++ {
		if _, err := CompressFixedRate(data, []int{d, d, d}, 12); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomAccess(b *testing.B) {
	d := 32
	data := smoothField(d)
	comp, err := CompressFixedRate(data, []int{d, d, d}, 12)
	if err != nil {
		b.Fatal(err)
	}
	fr, err := NewFixedRateReader(comp)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fr.DecodeBlock(i % fr.NumBlocks()); err != nil {
			b.Fatal(err)
		}
	}
}
