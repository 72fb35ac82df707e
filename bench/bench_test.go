package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"lcpio/internal/ckpt"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func names(ms []jsonMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// TestBenchmarkJSONMatchesTable keeps BENCHMARK.json and the Go metric and
// workload tables one definition.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, bj.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if err := checkDef(d); err != nil {
				t.Error(err)
			}
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
			switch {
			case bounded != (g.Bound != nil):
				t.Errorf("%s %s: bound present in BENCHMARK.json: %v", kind, d.Name, g.Bound != nil)
			case bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound in BENCHMARK.json %v, program %v", kind, d.Name, *g.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if !bytes.Contains(readme, []byte("`"+d.Name+"`")) {
				t.Errorf("README.md does not document metric %s", d.Name)
			}
		}
	}
}

// TestSmokeEmitsEveryMetric runs all four workloads at smoke size, both
// passes, and holds the output to the contract: every metric BENCHMARK.json
// names exactly once, each with unit and tag, nothing failed, and a last
// line with exactly the four keys.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{Seed: 1, Smoke: true, Dir: t.TempDir()}
			res, err := runWorkload(w, cfg, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 || res.Cycles == 0 {
				t.Fatalf("%s traced=%v: attempted %d failed %d cycles %d: %v",
					w.Name, traced, res.Attempted, res.Failed, res.Cycles, res.Notes)
			}
			want := names(bj.EndToEnd)
			if traced {
				want = names(bj.PerLayer)
			} else if fs := res.Metrics[failShare.Name]; fs.Value != 0 || fs.Tag == "" {
				t.Errorf("%s: fail_share %+v, want 0 with a tag", w.Name, fs)
			}
			for n, v := range res.Metrics {
				if v.Unit == "" || (v.Tag != tagWall && v.Tag != tagSim) {
					t.Errorf("%s: metric %s has unit %q tag %q", w.Name, n, v.Unit, v.Tag)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: metric %s is %v", w.Name, n, v.Value)
				}
			}

			var buf bytes.Buffer
			printRun(&buf, res)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.Name, err)
			}
			var keys []string
			for k := range last {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("%s: last line has keys %v", w.Name, keys)
			}
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatal(err)
			}
			var got []string
			for n := range line.Metrics {
				got = append(got, n)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: result line metrics\n got %v\nwant %v", w.Name, traced, got, want)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s: result line %+v", w.Name, line)
			}
			if traced {
				if _, err := os.Stat(traceFile(cfg, w)); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
			}
			if left, _ := os.ReadDir(cfg.Dir); !traced && len(left) != 0 {
				t.Errorf("%s: temporary files left behind: %v", w.Name, left)
			}
		}
	}
}

// TestVerifierCountsFailures is the output check's negative test: a value
// pushed beyond the bound and a cycle that stored different bytes must both
// be counted as failed operations.
func TestVerifierCountsFailures(t *testing.T) {
	const bound = 0.5
	orig := []float32{1, 2, 3, 4}
	set := ckpt.Set{Ranks: 1, Fields: []ckpt.Field{{Name: "f", ErrorBound: bound, Data: [][]float32{orig}}}}
	restored := func(data []float32) *ckpt.Restored {
		return &ckpt.Restored{Fields: []ckpt.RestoredField{{Name: "f", Data: [][]float32{data}}}}
	}
	var tl tally
	tl.op("inside the bound", withinBounds(set, restored([]float32{1.5, 1.5, 3, 4.25})))
	if tl.Failed != 0 {
		t.Fatalf("values inside the bound counted as failure: %v", tl.Notes)
	}
	tl.op("2x beyond the bound", withinBounds(set, restored([]float32{1, 2, 3 + 2*bound, 4})))
	tl.op("NaN", withinBounds(set, restored([]float32{1, float32(math.NaN()), 3, 4})))
	tl.op("short rank", withinBounds(set, restored(orig[:3])))

	ref := &cycleOut{StoredBytes: 1000, PayloadBytes: 900}
	tl.op("same bytes", sameBytes(ref, &cycleOut{StoredBytes: 1000, PayloadBytes: 900}))
	tl.op("different SetBytes", sameBytes(ref, &cycleOut{StoredBytes: 1001, PayloadBytes: 900}))
	if tl.Attempted != 6 || tl.Failed != 4 {
		t.Fatalf("attempted %d failed %d, want 6 and 4: %v", tl.Attempted, tl.Failed, tl.Notes)
	}
}

func TestPrinterRefusesUntaggedMetric(t *testing.T) {
	bad := []metricDef{
		{Name: "no_tag", Unit: "s", Better: "lower"},
		{Name: "no_unit", Tag: tagWall, Better: "lower"},
		{Name: "bad name", Unit: "s", Tag: tagWall, Better: "lower"},
	}
	ms := newMetricSet(bad, endToEnd)
	for _, d := range bad {
		if err := ms.put(d.Name, 1, 0); err == nil {
			t.Errorf("metric %q accepted", d.Name)
		}
	}
	if err := ms.put("not_in_table", 1, 0); err == nil {
		t.Error("metric outside the table accepted")
	}
	if err := ms.put("dump_mbps", 1, 0); err != nil {
		t.Error(err)
	}
	if err := ms.put("dump_mbps", 1, 0); err == nil {
		t.Error("metric accepted twice")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	higher := metricDef{Name: "dump_mbps", Better: "higher", Bound: 0.08}
	lower := metricDef{Name: "setup_s", Better: "lower", Bound: 0.20}
	cases := []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{higher, []float64{100}, []float64{95}, "ok"},
		{higher, []float64{100}, []float64{90}, "regressed"},
		{higher, []float64{100, 101, 99, 100}, []float64{90, 91, 89, 90}, "regressed"},
		{higher, []float64{100, 60, 140, 100}, []float64{90, 91, 89, 90}, "unresolved"},
		{higher, []float64{100, 60, 140, 100}, []float64{150, 151, 149, 150}, "ok"},
		{lower, []float64{1}, []float64{1.1}, "ok"},
		{lower, []float64{1}, []float64{1.3}, "regressed"},
	}
	for i, c := range cases {
		if got := judge(c.d, c.a, c.b).Verdict; got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}

	run := func(v float64, failed float64) runResult {
		m := map[string]value{failShare.Name: {Value: failed}}
		for _, d := range endToEnd {
			m[d.Name] = value{Value: v, Unit: d.Unit, Tag: d.Tag}
		}
		return runResult{Workload: workloads[0].Name, Metrics: m}
	}
	var out bytes.Buffer
	same := &document{Runs: []runResult{run(100, 0)}}
	if code := compareDocs(same, same, &out); code != 0 {
		t.Errorf("identical documents compare as %d:\n%s", code, out.String())
	}
	if code := compareDocs(same, &document{Runs: []runResult{run(100, 0.1)}}, &out); code == 0 {
		t.Error("a higher fail_share did not fail the comparison")
	}
}

func TestRingMediumWrapsInPlace(t *testing.T) {
	fm, err := ckpt.CreateFileMedium(t.TempDir() + "/ring")
	if err != nil {
		t.Fatal(err)
	}
	defer fm.Close()
	ring := &ringMedium{file: fm, window: 16}
	for off := int64(0); off < 100; off += 7 {
		want := []byte{byte(off), 1, 2, 3, 4, 5, 6, 7, 8, 9}
		if n, err := ring.WriteAt(want, off); n != len(want) || err != nil {
			t.Fatal(n, err)
		}
		got := make([]byte, len(want))
		if n, err := ring.ReadAt(got, off); n != len(got) || err != nil || !bytes.Equal(got, want) {
			t.Fatalf("offset %d: read %v (%d, %v), wrote %v", off, got, n, err, want)
		}
	}
	if ring.Size() != 98+10 || fm.Size() != 16 {
		t.Fatalf("logical size %d, file size %d", ring.Size(), fm.Size())
	}
}

func TestAnalyzeFoldsExchanges(t *testing.T) {
	sp := func(name, parent string, cycle int, start, end float64, bytes int64) span {
		return span{Name: name, Parent: parent, Cycle: cycle, Start: start, End: end, Bytes: bytes}
	}
	spans := []span{
		sp(spanConnWrite, spanDump, 4, 0, 1, 100), // open
		sp(spanConnRead, spanDump, 4, 1, 3, 13),
		sp(spanConnWrite, spanDump, 4, 10, 11, 5000), // put
		sp(spanMedWrite, spanDump, 4, 11, 12, 4000),
		sp(spanConnRead, spanDump, 4, 11, 14, 13),  // ack header
		sp(spanConnRead, spanDump, 4, 14, 15, 20),  // ack payload
		sp(spanConnWrite, spanDump, 4, 20, 21, 13), // close
		sp(spanConnRead, spanDump, 4, 21, 25, 200),
		sp(spanDump, "", 4, 0, 25, 0),
		sp(spanConnWrite, spanRestore, 4, 30, 31, 30),
		sp(spanMedRead, spanRestore, 4, 31, 32, 4000),
		sp(spanConnRead, spanRestore, 4, 31, 37, 50),
	}
	ct := analyze(spans)[4]
	if ct == nil {
		t.Fatal("cycle 4 missing")
	}
	want := cycleTrace{
		Frames: 3, WireBytes: 100 + 13 + 5000 + 13 + 20 + 13 + 200, WriteBlock: 3, AckWait: 2 + 3 + 1 + 4,
		OpenRTT: 2, CloseRTT: 4, PutRTT: []float64{4}, RestoreRTT: 6,
		MedWriteCalls: 1, MedReadCalls: 1, MedWriteBytes: 4000, MedReadBytes: 4000,
		MedWriteS: 1, MedReadS: 1, MedWriteDumpS: 1,
	}
	if !reflect.DeepEqual(*ct, want) {
		t.Fatalf("got  %+v\nwant %+v", *ct, want)
	}
}
