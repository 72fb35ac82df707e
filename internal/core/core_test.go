package core

import (
	"strings"
	"sync"
	"testing"

	"lcpio/internal/fpdata"
	"lcpio/internal/perf"
)

// testConfig keeps test runs fast: fewer repetitions and tiny codec fields.
func testConfig() Config {
	return Config{Seed: 7, Repetitions: 3, RatioElems: 1 << 14}
}

// Studies are expensive enough to share across tests.
var (
	studyOnce sync.Once
	csShared  *Study
	tsShared  *Study
	studyErr  error
)

func sharedStudies(t *testing.T) (cs, ts *Study) {
	t.Helper()
	studyOnce.Do(func() {
		csShared, studyErr = RunCompressionStudy(testConfig())
		if studyErr == nil {
			tsShared, studyErr = RunTransitStudy(testConfig())
		}
	})
	if studyErr != nil {
		t.Fatalf("study setup: %v", studyErr)
	}
	return csShared, tsShared
}

func TestCompressionStudyMatrix(t *testing.T) {
	cs, _ := sharedStudies(t)
	// 2 chips x 2 codecs x 3 datasets x 4 error bounds.
	if len(cs.Entries) != 48 {
		t.Fatalf("compression study has %d entries, want 48", len(cs.Entries))
	}
	counts := map[string]int{}
	for _, e := range cs.Entries {
		counts[e.Chip]++
		if e.Ratio <= 1 {
			t.Errorf("entry %s/%s/%s eb=%g has ratio %.2f <= 1",
				e.Chip, e.Codec, e.Dataset, e.EB, e.Ratio)
		}
		if len(e.Sweep.Points) < 20 {
			t.Errorf("sweep %s has only %d points", e.Sweep.Label, len(e.Sweep.Points))
		}
	}
	if counts["Broadwell"] != 24 || counts["Skylake"] != 24 {
		t.Fatalf("chip split %v", counts)
	}
}

func TestRatiosMonotoneInBound(t *testing.T) {
	cs, _ := sharedStudies(t)
	// For each codec and dataset, ratio must not increase as the bound
	// tightens (the paper's Section III-A premise).
	type key struct {
		codec, dataset string
	}
	byKey := map[key]map[float64]float64{}
	for _, e := range cs.Entries {
		k := key{e.Codec, e.Dataset}
		if byKey[k] == nil {
			byKey[k] = map[float64]float64{}
		}
		byKey[k][e.EB] = e.Ratio
	}
	for k, m := range byKey {
		if m[1e-1] < m[1e-4] {
			t.Errorf("%s/%s: ratio at 1e-1 (%.1f) below ratio at 1e-4 (%.1f)",
				k.codec, k.dataset, m[1e-1], m[1e-4])
		}
	}
}

func TestTransitStudyMatrix(t *testing.T) {
	_, ts := sharedStudies(t)
	if len(ts.Entries) != 2*len(TransitSizesGB) {
		t.Fatalf("transit study has %d entries", len(ts.Entries))
	}
}

func TestTableIVShapes(t *testing.T) {
	cs, _ := sharedStudies(t)
	rows, err := cs.Fit(TableIV)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("Table IV has %d rows", len(rows))
	}
	bw, err := FindRow(rows, "Broadwell")
	if err != nil {
		t.Fatal(err)
	}
	sk, err := FindRow(rows, "Skylake")
	if err != nil {
		t.Fatal(err)
	}
	// The paper's regimes: Broadwell a moderate power law, Skylake a sharp
	// knee with a much larger exponent.
	if bw.Fit.B < 2 || bw.Fit.B > 12 {
		t.Errorf("Broadwell exponent %.2f outside the moderate regime", bw.Fit.B)
	}
	if sk.Fit.B < 10 {
		t.Errorf("Skylake exponent %.2f should be knee-like (>10)", sk.Fit.B)
	}
	if sk.Fit.B <= bw.Fit.B {
		t.Errorf("Skylake exponent (%.1f) should exceed Broadwell's (%.1f)", sk.Fit.B, bw.Fit.B)
	}
	// Constant terms near the scaled floor.
	for _, r := range []ModelRow{bw, sk} {
		if r.Fit.C < 0.5 || r.Fit.C > 0.95 {
			t.Errorf("%s constant %.3f outside the scaled-floor regime", r.Name, r.Fit.C)
		}
	}
	// Per-chip models must fit better (lower RMSE) than the pooled Total
	// model — the paper's central Table IV observation.
	total, err := FindRow(rows, "Total")
	if err != nil {
		t.Fatal(err)
	}
	if bw.Fit.GF.RMSE >= total.Fit.GF.RMSE || sk.Fit.GF.RMSE >= total.Fit.GF.RMSE {
		t.Errorf("per-chip RMSE (bw %.4f, sk %.4f) should beat Total (%.4f)",
			bw.Fit.GF.RMSE, sk.Fit.GF.RMSE, total.Fit.GF.RMSE)
	}
}

func TestTableVShapes(t *testing.T) {
	_, ts := sharedStudies(t)
	rows, err := ts.Fit(TableV)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("Table V has %d rows", len(rows))
	}
	total, _ := FindRow(rows, "Total")
	bw, _ := FindRow(rows, "Broadwell")
	sk, _ := FindRow(rows, "Skylake")
	// Per-chip transit models also beat the pooled fit (Section IV-B).
	if bw.Fit.GF.RMSE >= total.Fit.GF.RMSE || sk.Fit.GF.RMSE >= total.Fit.GF.RMSE {
		t.Errorf("per-chip transit RMSE should beat Total: bw %.4f sk %.4f total %.4f",
			bw.Fit.GF.RMSE, sk.Fit.GF.RMSE, total.Fit.GF.RMSE)
	}
	if sk.Fit.B <= bw.Fit.B {
		t.Errorf("transit Skylake exponent (%.1f) should exceed Broadwell (%.1f)",
			sk.Fit.B, bw.Fit.B)
	}
}

func TestFigure1Shape(t *testing.T) {
	cs, _ := sharedStudies(t)
	series, err := cs.Characteristics(perf.Sweep.ScaledPower)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 { // 2 chips x 2 codecs
		t.Fatalf("Figure 1 has %d series", len(series))
	}
	for _, s := range series {
		// Scaled power: ends at 1, minimum at lowest frequency, floor in
		// the paper's regime.
		last := s.Y[len(s.Y)-1]
		if last < 0.99 || last > 1.01 {
			t.Errorf("%s: scaled power at fmax = %.3f", s.Label, last)
		}
		fMin, yMin := s.Min()
		if fMin != s.Freq[0] {
			t.Errorf("%s: power minimum at %.2f GHz, want lowest", s.Label, fMin)
		}
		if yMin < 0.55 || yMin > 0.95 {
			t.Errorf("%s: power floor %.3f outside regime", s.Label, yMin)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	cs, _ := sharedStudies(t)
	series, err := cs.Characteristics(perf.Sweep.ScaledRuntime)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		// Runtime minimum at the highest frequency (Section V-A2).
		fMin, _ := s.Min()
		if fMin != s.Freq[len(s.Freq)-1] {
			t.Errorf("%s: runtime minimum at %.2f GHz, want highest", s.Label, fMin)
		}
		// Monotone decrease with frequency (within noise).
		if s.Y[0] < s.Y[len(s.Y)-1] {
			t.Errorf("%s: runtime at fmin below fmax", s.Label)
		}
	}
}

func TestFigure3TransitFloorAboveCompression(t *testing.T) {
	cs, ts := sharedStudies(t)
	cSeries, err := cs.Characteristics(perf.Sweep.ScaledPower)
	if err != nil {
		t.Fatal(err)
	}
	tSeries, err := ts.Characteristics(perf.Sweep.ScaledPower)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig 3 vs Fig 1: data writing has a higher power floor
	// (~0.9 vs ~0.8) because less of its power is frequency-scalable.
	floorOf := func(ss []Series, chip string) float64 {
		for _, s := range ss {
			if len(s.Label) >= len(chip) && s.Label[:len(chip)] == chip {
				_, y := s.Min()
				return y
			}
		}
		t.Fatalf("no series for %s", chip)
		return 0
	}
	for _, chip := range []string{"Skylake"} {
		cf := floorOf(cSeries, chip)
		tf := floorOf(tSeries, chip)
		if tf <= cf {
			t.Errorf("%s: transit floor %.3f should exceed compression floor %.3f", chip, tf, cf)
		}
	}
}

func TestFigure4SkylakeRuntimeStagnant(t *testing.T) {
	_, ts := sharedStudies(t)
	series, err := ts.Characteristics(perf.Sweep.ScaledRuntime)
	if err != nil {
		t.Fatal(err)
	}
	var bw, sk Series
	for _, s := range series {
		switch s.Label {
		case "Broadwell":
			bw = s
		case "Skylake":
			sk = s
		}
	}
	if len(bw.Y) == 0 || len(sk.Y) == 0 {
		t.Fatal("missing chip series")
	}
	// Skylake write runtime nearly flat over the upper half of the range;
	// Broadwell rises more (Section V-A2).
	mid := len(sk.Y) / 2
	skRise := sk.Y[mid] - 1
	bwRise := bw.Y[len(bw.Y)/2] - 1
	if skRise >= bwRise {
		t.Errorf("Skylake mid-range rise %.3f should be below Broadwell %.3f", skRise, bwRise)
	}
}

func TestSeriesHelpers(t *testing.T) {
	s := Series{Freq: []float64{1, 2, 3}, Y: []float64{5, 4, 6}}
	f, y := s.Min()
	if f != 2 || y != 4 {
		t.Fatalf("Min: %v %v", f, y)
	}
	empty := Series{}
	if f, y := empty.Min(); f != 0 || y != 0 {
		t.Fatal("empty Min")
	}
}

// A study that asks for a tuple nobody measured has a bug: the lookup must
// say so, not answer "typical compressibility", and the sweep driver must
// pass the error on.
func TestRatioTableUnmeasuredTuple(t *testing.T) {
	var none RatioTable
	if r, err := none.Ratio("sz", "NYX", 1e-3); err == nil {
		t.Fatalf("nil RatioTable answered %v", r)
	}
	rt, err := MeasureRatios(testConfig(), fpdata.TableI()[:1])
	if err != nil {
		t.Fatal(err)
	}
	measured := fpdata.TableI()[0].Dataset
	if r, err := rt.Ratio("sz", measured, 1e-3); err != nil || r <= 1 {
		t.Fatalf("measured tuple: ratio %v, err %v", r, err)
	}
	for _, miss := range []struct {
		codec, dataset string
		eb             float64
	}{
		{"squant", measured, 1e-3},               // codec not run
		{"sz", fpdata.TableI()[1].Dataset, 1e-3}, // dataset not run
		{"sz", measured, 5e-3},                   // bound not run
	} {
		if r, err := rt.Ratio(miss.codec, miss.dataset, miss.eb); err == nil {
			t.Errorf("%s/%s/%g was never measured but answered %v", miss.codec, miss.dataset, miss.eb, r)
		}
	}
	// The compression matrix over all of Table I against a table that
	// measured only its first dataset: the driver stops at the hole.
	chips := []string{"Broadwell"}
	if _, err := runStudy(testConfig(), 1, chips, compressionJobs(rt, fpdata.TableI())); err == nil ||
		!strings.Contains(err.Error(), "no measured ratio") {
		t.Fatalf("sweep driver ran a study with an unmeasured tuple: err = %v", err)
	}
	if st, err := runStudy(testConfig(), 1, chips, compressionJobs(rt, fpdata.TableI()[:1])); err != nil || len(st.Entries) != 8 {
		t.Fatalf("fully measured matrix: %v", err)
	}
}

func TestMeasureRatiosBoundEnforced(t *testing.T) {
	cfg := testConfig()
	rt, err := MeasureRatios(cfg, fpdata.TableI()[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(rt) != 8 { // 2 codecs x 4 bounds
		t.Fatalf("ratio table has %d entries", len(rt))
	}
}
