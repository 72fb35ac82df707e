package compress

import (
	"math"
	"testing"

	"lcpio/internal/fpdata"
)

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 3 || names[0] != "squant" || names[1] != "sz" || names[2] != "zfp" {
		t.Fatalf("Names() = %v", names)
	}
	for _, n := range names {
		c, err := NewHandle(n, 1)
		if err != nil {
			t.Fatalf("NewHandle(%q): %v", n, err)
		}
		if err := CheckName(n); err != nil {
			t.Fatalf("CheckName(%q): %v", n, err)
		}
		if c.Name() != n {
			t.Fatalf("codec %q reports name %q", n, c.Name())
		}
	}
	if _, err := NewHandle("gzip", 1); err == nil {
		t.Fatal("unknown codec accepted")
	}
	if err := CheckName("gzip"); err == nil {
		t.Fatal("unknown codec name accepted")
	}
}

func TestEvaluateBothCodecs(t *testing.T) {
	spec, _ := fpdata.Lookup("NYX", "")
	f := fpdata.Generate(spec, 32, 4)
	eb := AbsBoundFromRelative(1e-3, f.Data)
	for _, name := range Names() {
		c, _ := NewHandle(name, 0)
		res, err := Evaluate(c, f.Data, f.Dims, eb)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.MaxAbsError > eb {
			t.Errorf("%s: error %g exceeds bound %g", name, res.MaxAbsError, eb)
		}
		if res.Ratio() <= 1 {
			t.Errorf("%s: no compression (ratio %.2f)", name, res.Ratio())
		}
		if res.PSNR < 20 {
			t.Errorf("%s: implausible PSNR %.1f dB", name, res.PSNR)
		}
		if res.BitRate() >= 32 || res.BitRate() <= 0 {
			t.Errorf("%s: bitrate %.2f", name, res.BitRate())
		}
	}
}

func TestSZBeatsZFPOnRatio(t *testing.T) {
	// The literature (and the paper's compressor choice) expects SZ's
	// predictive coding to out-compress ZFP at matched absolute bounds on
	// smooth fields; our reproductions must preserve that ordering.
	spec, _ := fpdata.Lookup("CESM-ATM", "")
	f := fpdata.Generate(spec, 64, 4)
	eb := AbsBoundFromRelative(1e-2, f.Data)
	szC, _ := NewHandle("sz", 0)
	zfpC, _ := NewHandle("zfp", 0)
	szRes, err := Evaluate(szC, f.Data, f.Dims, eb)
	if err != nil {
		t.Fatal(err)
	}
	zfpRes, err := Evaluate(zfpC, f.Data, f.Dims, eb)
	if err != nil {
		t.Fatal(err)
	}
	if szRes.Ratio() <= zfpRes.Ratio() {
		t.Errorf("expected sz ratio (%.2f) > zfp ratio (%.2f)", szRes.Ratio(), zfpRes.Ratio())
	}
}

func TestMaxAbsError(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{1.5, 2, 2}
	if e := MaxAbsError(a, b); math.Abs(e-1) > 1e-9 {
		t.Fatalf("MaxAbsError = %v", e)
	}
	nan := float32(math.NaN())
	if e := MaxAbsError([]float32{nan}, []float32{nan}); e != 0 {
		t.Fatalf("NaN pair error = %v", e)
	}
	if e := MaxAbsError([]float32{nan}, []float32{1}); !math.IsInf(e, 1) {
		t.Fatalf("NaN mismatch error = %v", e)
	}
	if e := MaxAbsError(nil, nil); e != 0 {
		t.Fatalf("empty error = %v", e)
	}
}

func TestPSNR(t *testing.T) {
	a := []float32{0, 1, 2, 3}
	if p := PSNR(a, a); !math.IsInf(p, 1) {
		t.Fatalf("identical PSNR = %v", p)
	}
	b := []float32{0.1, 1.1, 1.9, 3.1}
	p := PSNR(a, b)
	if p < 20 || p > 40 {
		t.Fatalf("PSNR = %v, expected ~30 dB", p)
	}
	if p := PSNR(nil, nil); p != 0 {
		t.Fatalf("empty PSNR = %v", p)
	}
	// Constant signal: range 0.
	c := []float32{5, 5, 5}
	d := []float32{5, 5, 6}
	if p := PSNR(c, d); p != 0 {
		t.Fatalf("zero-range PSNR = %v", p)
	}
}

func TestAbsBoundFromRelative(t *testing.T) {
	data := []float32{-2, 0, 8} // range 10
	if eb := AbsBoundFromRelative(1e-2, data); math.Abs(eb-0.1) > 1e-12 {
		t.Fatalf("eb = %v, want 0.1", eb)
	}
	// Zero-range data falls back to the relative value itself.
	if eb := AbsBoundFromRelative(1e-2, []float32{3, 3}); eb != 1e-2 {
		t.Fatalf("zero-range eb = %v", eb)
	}
	if eb := AbsBoundFromRelative(0.5, nil); eb != 0.5 {
		t.Fatalf("empty eb = %v", eb)
	}
}

// TestAbsBoundFromRelativeNonFinite: the codecs store non-finite values
// verbatim, so they take no part in the range: wherever a NaN or an infinity
// sits, the bound is the one the finite values alone give, and the field
// round-trips under it. A field with no finite value falls back to range 1.
func TestAbsBoundFromRelativeNonFinite(t *testing.T) {
	const n, rel = 4096, 1e-3
	clean := make([]float32, n)
	for i := range clean {
		clean[i] = float32(math.Sin(float64(i)/50)) * 48
	}
	want := AbsBoundFromRelative(rel, clean)
	if !(want > 0) || math.IsInf(want, 0) {
		t.Fatalf("clean bound %v", want)
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, tc := range []struct {
		name string
		v    float32
	}{{"NaN", nan}, {"+Inf", inf}, {"-Inf", -inf}} {
		for _, at := range []int{0, n / 2, n - 1} {
			data := append([]float32(nil), clean...)
			data[at] = tc.v
			// None of the three positions holds an extremum of the clean
			// field, so the finite range — and the bound — is unchanged.
			eb := AbsBoundFromRelative(rel, data)
			if eb != want {
				t.Errorf("%s at %d: bound %v, want %v wherever it sits", tc.name, at, eb, want)
			}
			for _, name := range Names() {
				h, _ := NewHandle(name, 1)
				if _, err := Evaluate(h, data, []int{n}, eb); err != nil {
					t.Errorf("%s at %d, %s: %v", tc.name, at, name, err)
				}
			}
		}
	}
	allNaN := []float32{nan, nan, nan, nan}
	if eb := AbsBoundFromRelative(rel, allNaN); eb != rel {
		t.Errorf("all-NaN bound %v, want the rel fallback %v", eb, rel)
	}
	for _, name := range Names() {
		h, _ := NewHandle(name, 1)
		if _, err := Evaluate(h, allNaN, []int{4}, rel); err != nil {
			t.Errorf("all-NaN, %s: %v", name, err)
		}
	}
}

func TestPaperErrorBounds(t *testing.T) {
	want := []float64{1e-1, 1e-2, 1e-3, 1e-4}
	if len(PaperErrorBounds) != len(want) {
		t.Fatalf("PaperErrorBounds = %v", PaperErrorBounds)
	}
	for i := range want {
		if PaperErrorBounds[i] != want[i] {
			t.Fatalf("PaperErrorBounds = %v", PaperErrorBounds)
		}
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	r := Result{RawBytes: 4000, CompressedBytes: 400}
	if r.Ratio() != 10 {
		t.Fatalf("Ratio = %v", r.Ratio())
	}
	if r.BitRate() != 3.2 {
		t.Fatalf("BitRate = %v", r.BitRate())
	}
	empty := Result{}
	if empty.Ratio() != 0 || empty.BitRate() != 0 {
		t.Fatal("zero Result metrics should be 0")
	}
}
