package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// install swaps in a fresh registry and restores the previous state when
// the test ends.
func install(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	prev := Use(r)
	t.Cleanup(func() { Use(prev) })
	return r
}

func TestSpanNestingOrder(t *testing.T) {
	r := install(t)

	root := Start("root")
	a := Start("a")
	b := Start("b")
	b.End()
	a.End()
	c := Start("c")
	c.End()
	root.End()

	snap := r.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("want 1 root span, got %d", len(snap.Spans))
	}
	rt := snap.Spans[0]
	if rt.Name != "root" || rt.Open {
		t.Fatalf("bad root: %+v", rt)
	}
	if len(rt.Children) != 2 || rt.Children[0].Name != "a" || rt.Children[1].Name != "c" {
		t.Fatalf("root children wrong: %+v", rt.Children)
	}
	if len(rt.Children[0].Children) != 1 || rt.Children[0].Children[0].Name != "b" {
		t.Fatalf("a's children wrong: %+v", rt.Children[0].Children)
	}
}

func TestSpanChildExplicitParent(t *testing.T) {
	r := install(t)
	root := Start("root")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := root.Child("worker")
			s.End()
		}()
	}
	wg.Wait()
	root.End()

	snap := r.Snapshot()
	if got := len(snap.Spans[0].Children); got != 8 {
		t.Fatalf("want 8 worker children, got %d", got)
	}
	if st := snap.SpanTotals["worker"]; st.Count != 8 {
		t.Fatalf("worker span total count = %d, want 8", st.Count)
	}
}

func TestSpanAttrsAndStats(t *testing.T) {
	r := install(t)
	s := Start("stage")
	s.SetAttr("codec", "sz")
	time.Sleep(time.Millisecond)
	if d := s.End(); d <= 0 {
		t.Fatalf("End returned non-positive duration %v", d)
	}
	// Double End must not double-count.
	s.End()

	snap := r.Snapshot()
	if snap.Spans[0].Attrs["codec"] != "sz" {
		t.Fatalf("attr lost: %+v", snap.Spans[0].Attrs)
	}
	st := snap.SpanTotals["stage"]
	if st.Count != 1 || st.Seconds <= 0 {
		t.Fatalf("span totals wrong: %+v", st)
	}
}

func TestConcurrentMetrics(t *testing.T) {
	r := install(t)
	const workers = 8
	const perWorker = 1000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				Add("c", 1)
				AddFloat("f", 0.5)
				Set("g", float64(w))
				Observe("h", float64(i%10))
			}
		}(w)
	}
	wg.Wait()

	if v, _ := r.CounterValue("c"); v != workers*perWorker {
		t.Fatalf("counter c = %v, want %d", v, workers*perWorker)
	}
	if v, _ := r.CounterValue("f"); v != workers*perWorker/2 {
		t.Fatalf("counter f = %v, want %d", v, workers*perWorker/2)
	}
	h := r.Histogram("h")
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	wantSum := float64(workers*perWorker) * 4.5 // mean of 0..9
	if h.Sum() != wantSum {
		t.Fatalf("histogram sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestNoopPathAllocatesNothing(t *testing.T) {
	Use(nil)
	t.Cleanup(func() { Use(nil) })

	allocs := testing.AllocsPerRun(1000, func() {
		s := Start("span")
		s.SetAttr("k", "v")
		s.Child("child").End()
		s.End()
		Add("c", 1)
		AddFloat("f", 1.5)
		Set("g", 2)
		Observe("h", 3)
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry path allocates %v bytes/op, want 0", allocs)
	}
}

// TestNoopOverheadNegligible is the benchmark guard of the issue: the
// disabled span path must stay in the nanoseconds, far below the cost of
// any codec stage it wraps. The bound is two orders of magnitude above
// the observed cost so scheduler noise cannot flake it.
func TestNoopOverheadNegligible(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	Use(nil)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := Start("span")
			Add("c", 1)
			s.End()
		}
	})
	if ns := res.NsPerOp(); ns > 1000 {
		t.Fatalf("no-op span+counter costs %d ns/op, want < 1000", ns)
	}
}

func TestHistogramBuckets(t *testing.T) {
	DefineHistogram("buckets_test", []float64{1, 10, 100})
	r := install(t)
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		Observe("buckets_test", v)
	}
	snap := r.Snapshot()
	hs := snap.Histograms["buckets_test"]
	// le=1: {0.5, 1}; le=10: {5}; le=100: {50}; +Inf: {500}
	want := []int64{2, 1, 1, 1}
	if len(hs.Buckets) != 4 {
		t.Fatalf("bucket count = %d, want 4", len(hs.Buckets))
	}
	for i, bk := range hs.Buckets {
		if bk.Count != want[i] {
			t.Fatalf("bucket %d count = %d, want %d", i, bk.Count, want[i])
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := install(t)
	Add("lcpio_test_bytes_total", 42)
	Set("lcpio_test_gauge", 1.5)
	Observe("lcpio_test_seconds", 0.05)
	s := Start("stage.one")
	s.End()

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE lcpio_test_bytes_total counter\nlcpio_test_bytes_total 42\n",
		"# TYPE lcpio_test_gauge gauge\nlcpio_test_gauge 1.5\n",
		"# TYPE lcpio_test_seconds histogram\n",
		`lcpio_test_seconds_bucket{le="0.1"} 1`,
		`lcpio_test_seconds_bucket{le="+Inf"} 1`,
		"lcpio_test_seconds_count 1\n",
		`lcpio_span_seconds_total{span="stage.one"}`,
		`lcpio_span_count_total{span="stage.one"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must be "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestWriteJSONAndSpanTree(t *testing.T) {
	r := install(t)
	root := Start("cmd")
	child := Start("stage")
	child.End()
	root.End()
	Add("n", 3)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Spans []struct {
			Name     string `json:"name"`
			Children []struct {
				Name string `json:"name"`
			} `json:"children"`
		} `json:"spans"`
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "cmd" ||
		len(snap.Spans[0].Children) != 1 || snap.Spans[0].Children[0].Name != "stage" {
		t.Fatalf("trace tree wrong: %+v", snap.Spans)
	}
	if snap.Counters["n"] != 3 {
		t.Fatalf("counters wrong: %+v", snap.Counters)
	}

	buf.Reset()
	if err := r.WriteSpanTree(&buf); err != nil {
		t.Fatal(err)
	}
	tree := buf.String()
	if !strings.Contains(tree, "cmd") || !strings.Contains(tree, "  stage") {
		t.Fatalf("span tree missing indented child:\n%s", tree)
	}
}

// tapRecorder collects events for tap tests.
type tapRecorder struct {
	mu      sync.Mutex
	started []string
	ended   []string
	metrics []string
}

func (t *tapRecorder) SpanStart(id, parent int, name string) {
	t.mu.Lock()
	t.started = append(t.started, name)
	t.mu.Unlock()
}

func (t *tapRecorder) SpanEnd(id int, name string, d time.Duration) {
	t.mu.Lock()
	t.ended = append(t.ended, name)
	t.mu.Unlock()
}

func (t *tapRecorder) MetricUpdate(name string, v float64) {
	t.mu.Lock()
	t.metrics = append(t.metrics, name)
	t.mu.Unlock()
}

func TestRecorderTap(t *testing.T) {
	r := NewRegistry()
	tap := &tapRecorder{}
	r.SetTap(tap)
	prev := Use(r)
	t.Cleanup(func() { Use(prev) })
	if again := Use(r); again != r {
		t.Fatalf("Use returned %p, want the registry it replaced (%p)", again, r)
	}

	s := Start("a")
	Add("m", 1)
	s.End()

	if len(tap.started) != 1 || tap.started[0] != "a" {
		t.Fatalf("tap started = %v", tap.started)
	}
	if len(tap.ended) != 1 || tap.ended[0] != "a" {
		t.Fatalf("tap ended = %v", tap.ended)
	}
	if len(tap.metrics) != 1 || tap.metrics[0] != "m" {
		t.Fatalf("tap metrics = %v", tap.metrics)
	}
}

func TestOpenSpanInSnapshot(t *testing.T) {
	r := install(t)
	Start("never_ended")
	snap := r.Snapshot()
	if !snap.Spans[0].Open {
		t.Fatal("open span not flagged")
	}
}
