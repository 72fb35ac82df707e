package core

import (
	"strings"
	"sync"
	"testing"

	"lcpio/internal/fpdata"
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
		{"gzip", measured, 1e-3},                 // codec not run
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
