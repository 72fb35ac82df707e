package fpdata

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTableIRegistry(t *testing.T) {
	specs := TableI()
	if len(specs) != 3 {
		t.Fatalf("Table I has %d datasets, want 3", len(specs))
	}
	wantDims := map[string][]int{
		"CESM-ATM": {26, 1800, 3600},
		"HACC":     {1, 280_953_867},
		"NYX":      {512, 512, 512},
	}
	for _, s := range specs {
		want, ok := wantDims[s.Dataset]
		if !ok {
			t.Fatalf("unexpected dataset %q", s.Dataset)
		}
		if len(s.Dims) != len(want) {
			t.Fatalf("%s dims %v", s.Dataset, s.Dims)
		}
		for i := range want {
			if s.Dims[i] != want[i] {
				t.Fatalf("%s dims %v, want %v", s.Dataset, s.Dims, want)
			}
		}
		if s.PaperBytes <= 0 {
			t.Fatalf("%s missing PaperBytes", s.Dataset)
		}
	}
}

func TestIsabelFields(t *testing.T) {
	fields := IsabelFields()
	if len(fields) != 6 {
		t.Fatalf("ISABEL has %d fields, want 6", len(fields))
	}
	names := map[string]bool{}
	for _, s := range fields {
		names[s.Field] = true
		if s.Dims[0] != 100 || s.Dims[1] != 500 || s.Dims[2] != 500 {
			t.Fatalf("field %s dims %v", s.Field, s.Dims)
		}
		if s.Kind != KindWeather {
			t.Fatalf("field %s kind %v", s.Field, s.Kind)
		}
	}
	for _, want := range []string{"PRECIP", "P", "TC", "U", "V", "W"} {
		if !names[want] {
			t.Fatalf("missing field %s", want)
		}
	}
}

func TestLookup(t *testing.T) {
	s, err := Lookup("NYX", "")
	if err != nil || s.Dataset != "NYX" {
		t.Fatalf("Lookup NYX: %v %v", s, err)
	}
	s, err = Lookup("Hurricane-ISABEL", "TC")
	if err != nil || s.Field != "TC" {
		t.Fatalf("Lookup ISABEL TC: %v %v", s, err)
	}
	if _, err := Lookup("NOPE", ""); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, _ := Lookup("NYX", "")
	a := Generate(spec, 32, 42)
	b := Generate(spec, 32, 42)
	if len(a.Data) != len(b.Data) {
		t.Fatal("length mismatch")
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a.Data[i], b.Data[i])
		}
	}
	c := Generate(spec, 32, 43)
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fields")
	}
}

func TestScaledDims(t *testing.T) {
	got := scaledDims([]int{512, 512, 512}, 8)
	for _, d := range got {
		if d != 64 {
			t.Fatalf("scaledDims: %v", got)
		}
	}
	// Flooring at 1 and minimum fastest-axis extent.
	got = scaledDims([]int{26, 1800, 3600}, 1000)
	if got[0] != 1 || got[2] < 16 {
		t.Fatalf("scaledDims extreme: %v", got)
	}
	// scale<1 treated as 1.
	got = scaledDims([]int{10, 10}, 0)
	if got[0] != 10 || got[1] != 10 {
		t.Fatalf("scale 0: %v", got)
	}
}

func TestGenerateAllKindsFinite(t *testing.T) {
	specs := append(TableI(), IsabelFields()[0], IsabelFields()[3])
	for _, spec := range specs {
		f := Generate(spec, 64, 7)
		if f.NumElements() == 0 {
			t.Fatalf("%s: empty field", spec.Dataset)
		}
		for i, v := range f.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s: non-finite value at %d: %v", spec.Dataset, i, v)
			}
		}
		lo, hi := f.Range()
		if !(hi > lo) {
			t.Fatalf("%s: degenerate range [%v,%v]", spec.Dataset, lo, hi)
		}
	}
}

// Smoothness property: generated grid fields must have much smaller
// first-difference variance than value variance — that spatial correlation
// is precisely what the paper's compressors exploit.
func TestGeneratedFieldsAreSmooth(t *testing.T) {
	for _, name := range []string{"CESM-ATM", "NYX"} {
		spec, _ := Lookup(name, "")
		f := Generate(spec, 16, 3)
		w := f.Dims[len(f.Dims)-1]
		var valVar, diffVar float64
		var mean float64
		for _, v := range f.Data {
			mean += float64(v)
		}
		mean /= float64(len(f.Data))
		nd := 0
		for i, v := range f.Data {
			valVar += (float64(v) - mean) * (float64(v) - mean)
			if i%w != 0 {
				d := float64(f.Data[i]) - float64(f.Data[i-1])
				diffVar += d * d
				nd++
			}
		}
		valVar /= float64(len(f.Data))
		diffVar /= float64(nd)
		if diffVar > valVar/4 {
			t.Errorf("%s: field not smooth: diffVar=%g valVar=%g", name, diffVar, valVar)
		}
	}
}

// HACC particle data must be noisy (hard to compress) relative to grid data.
func TestParticleDataIsNoisy(t *testing.T) {
	spec, _ := Lookup("HACC", "")
	f := Generate(spec, 10000, 3)
	var diffVar, valVar, mean float64
	for _, v := range f.Data {
		mean += float64(v)
	}
	mean /= float64(len(f.Data))
	for i, v := range f.Data {
		valVar += (float64(v) - mean) * (float64(v) - mean)
		if i > 0 {
			d := float64(f.Data[i]) - float64(f.Data[i-1])
			diffVar += d * d
		}
	}
	valVar /= float64(len(f.Data))
	diffVar /= float64(len(f.Data) - 1)
	if diffVar < valVar/20 {
		t.Errorf("HACC field too smooth: diffVar=%g valVar=%g", diffVar, valVar)
	}
}

func TestFieldSizeBytes(t *testing.T) {
	spec, _ := Lookup("NYX", "")
	f := Generate(spec, 64, 1)
	if f.SizeBytes() != int64(len(f.Data))*4 {
		t.Fatalf("SizeBytes %d, elements %d", f.SizeBytes(), len(f.Data))
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindClimate: "climate", KindParticle: "particle",
		KindCosmology: "cosmology", KindWeather: "weather",
	} {
		if k.String() != want {
			t.Errorf("Kind %d String %q", k, k.String())
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestBoxFilterPreservesConstant(t *testing.T) {
	row := []float32{5, 5, 5, 5, 5, 5, 5, 5}
	tmp := make([]float32, len(row))
	boxFilter(row, tmp, 2)
	for i, v := range row {
		if math.Abs(float64(v)-5) > 1e-6 {
			t.Fatalf("constant not preserved at %d: %v", i, v)
		}
	}
}

func TestBoxFilterReducesVariance(t *testing.T) {
	rng := newXorshift(9)
	row := make([]float32, 512)
	for i := range row {
		row[i] = float32(rng.normal())
	}
	varOf := func(r []float32) float64 {
		var m, v float64
		for _, x := range r {
			m += float64(x)
		}
		m /= float64(len(r))
		for _, x := range r {
			v += (float64(x) - m) * (float64(x) - m)
		}
		return v / float64(len(r))
	}
	before := varOf(row)
	tmp := make([]float32, len(row))
	boxFilter(row, tmp, 3)
	after := varOf(row)
	if after >= before {
		t.Fatalf("box filter did not reduce variance: %g -> %g", before, after)
	}
}

func TestXorshiftStats(t *testing.T) {
	rng := newXorshift(12345)
	n := 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := rng.normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance %v", variance)
	}
}

func TestXorshiftZeroSeed(t *testing.T) {
	rng := newXorshift(0)
	if rng.next() == rng.next() {
		t.Fatal("zero-seeded rng stuck")
	}
}

// Property: floats are always in [0,1).
func TestQuickFloatRange(t *testing.T) {
	f := func(seed uint64) bool {
		rng := newXorshift(seed)
		for i := 0; i < 100; i++ {
			v := rng.float()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 1, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerateNYX(b *testing.B) {
	spec, _ := Lookup("NYX", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := Generate(spec, 8, int64(i))
		b.SetBytes(f.SizeBytes())
	}
}
