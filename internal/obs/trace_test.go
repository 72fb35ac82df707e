package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestWriteChromeTraceLanes(t *testing.T) {
	r := install(t)
	root := Start("root")
	var kids []Span
	for i := 0; i < 4; i++ {
		kids = append(kids, root.Child(fmt.Sprintf("w%d", i)))
	}
	for _, k := range kids {
		k.End()
	}
	root.AddEnergy(3)
	root.End()

	var buf bytes.Buffer
	if err := r.Snapshot().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("chrome trace JSON invalid: %v", err)
	}
	if len(tr.TraceEvents) != 5 {
		t.Fatalf("want 5 events, got %d", len(tr.TraceEvents))
	}
	var rootEv bool
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has phase %q, want X", ev.Name, ev.Ph)
		}
		if ev.Name == "root" {
			rootEv = true
			if ev.Args["joules"] == nil {
				t.Fatalf("root event missing joules arg: %+v", ev.Args)
			}
		}
	}
	if !rootEv {
		t.Fatal("root event missing")
	}
	// Overlapping events must never share a lane: per tid, sort-by-start
	// intervals either nest or are disjoint. The four instant children all
	// share [start,start) ranges rarely; just assert no two events with the
	// same tid overlap without nesting.
	type iv struct{ s, e int64 }
	byLane := map[int][]iv{}
	for _, ev := range tr.TraceEvents {
		byLane[ev.TID] = append(byLane[ev.TID], iv{ev.TS, ev.TS + ev.Dur})
	}
	for lane, ivs := range byLane {
		for i := 0; i < len(ivs); i++ {
			for j := i + 1; j < len(ivs); j++ {
				a, b := ivs[i], ivs[j]
				if a.s > b.s {
					a, b = b, a
				}
				if b.s < a.e && b.e > a.e { // overlaps but does not nest
					t.Fatalf("lane %d has non-nesting overlap %+v vs %+v", lane, a, b)
				}
			}
		}
	}
}

func TestWriteFolded(t *testing.T) {
	r := install(t)
	root := Start("root;with;semis")
	child := Start("leaf")
	child.AddEnergy(0.5)
	time.Sleep(2 * time.Millisecond) // give the leaf measurable self time
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := r.Snapshot().WriteFolded(&buf, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "root:with:semis;leaf ") {
		t.Fatalf("folded stack path missing or unsanitized:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		parts := strings.Split(line, " ")
		if len(parts) != 2 {
			t.Fatalf("malformed folded line %q", line)
		}
	}

	buf.Reset()
	if err := r.Snapshot().WriteFolded(&buf, true); err != nil {
		t.Fatal(err)
	}
	// Energy weighting: only the leaf carries joules (0.5 J = 500000 µJ).
	if got := strings.TrimSpace(buf.String()); got != "root:with:semis;leaf 500000" {
		t.Fatalf("energy-folded output = %q", got)
	}
}

func TestExportersOnEmptyRegistry(t *testing.T) {
	r := NewRegistry()
	for name, emit := range map[string]func(*bytes.Buffer) error{
		"json":   func(b *bytes.Buffer) error { return r.Snapshot().WriteJSON(b) },
		"prom":   func(b *bytes.Buffer) error { return r.Snapshot().WritePrometheus(b) },
		"tree":   func(b *bytes.Buffer) error { return r.Snapshot().WriteTree(b) },
		"chrome": func(b *bytes.Buffer) error { return r.Snapshot().WriteChromeTrace(b) },
		"folded": func(b *bytes.Buffer) error { return r.Snapshot().WriteFolded(b, false) },
	} {
		var buf bytes.Buffer
		if err := emit(&buf); err != nil {
			t.Fatalf("%s exporter failed on empty registry: %v", name, err)
		}
	}
	// The empty JSON snapshot still round-trips.
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(&buf); err != nil {
		t.Fatalf("empty snapshot does not round-trip: %v", err)
	}
}

func TestExportersOnHugeRegistry(t *testing.T) {
	r := install(t)
	root := Start("root")
	for i := 0; i < 10000; i++ {
		s := root.Child("leaf")
		s.AddEnergy(0.001)
		s.End()
	}
	root.End()

	var buf bytes.Buffer
	if err := r.Snapshot().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("huge chrome trace is invalid JSON")
	}
	buf.Reset()
	if err := r.Snapshot().WriteFolded(&buf, true); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.RootJoules(); math.Abs(got-10) > 1e-6 {
		t.Fatalf("huge trace RootJoules = %v, want 10", got)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := install(t)
	root := Start("cmd")
	root.SetAttr("k", "v")
	s := Start("stage")
	s.AddEnergy(2.25)
	s.End()
	root.End()
	Add("c", 7)
	Set("g", 1.5)
	Observe("lat", 0.01)

	pt := r.StartPipeline("pipe", 2)
	pt.Worker(0).Run("s1")
	pt.End()

	live := r.Snapshot()
	var buf bytes.Buffer
	if err := live.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Every rendering of the recorded file is the rendering of the live
	// registry, so `--trace` followed by `lcpio report` loses nothing.
	for name, render := range map[string]func(Snapshot, *bytes.Buffer) error{
		"tree":          func(s Snapshot, b *bytes.Buffer) error { return s.WriteTree(b) },
		"chrome":        func(s Snapshot, b *bytes.Buffer) error { return s.WriteChromeTrace(b) },
		"folded":        func(s Snapshot, b *bytes.Buffer) error { return s.WriteFolded(b, false) },
		"folded-energy": func(s Snapshot, b *bytes.Buffer) error { return s.WriteFolded(b, true) },
		"prometheus":    func(s Snapshot, b *bytes.Buffer) error { return s.WritePrometheus(b) },
	} {
		var want, got bytes.Buffer
		if render(live, &want) != nil || render(*snap, &got) != nil {
			t.Fatalf("%s: render failed", name)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("%s: recorded trace renders differently from the live registry:\nlive:\n%s\nrecorded:\n%s",
				name, want.Bytes(), got.Bytes())
		}
	}
	if snap.Spans[0].Name != "cmd" || snap.Spans[0].Attrs["k"] != "v" {
		t.Fatalf("spans lost in round trip: %+v", snap.Spans[0])
	}
	if got := snap.Spans[0].Joules; got != 2.25 {
		t.Fatalf("rolled-up joules lost: %v", got)
	}
	if snap.Counters["c"] != 7 || snap.Gauges["g"] != 1.5 {
		t.Fatalf("metrics lost: %+v %+v", snap.Counters, snap.Gauges)
	}
	h := snap.Histograms["lat"]
	if h.Count != 1 {
		t.Fatalf("histogram lost: %+v", h)
	}
	// The +Inf bucket bound survives the JSON round trip.
	if last := h.Buckets[len(h.Buckets)-1]; !math.IsInf(last.LE, 1) {
		t.Fatalf("+Inf bucket bound lost: %v", last.LE)
	}
	p, ok := snap.Pipelines["pipe"]
	if !ok || p.Workers != 2 || p.Stages["s1"].Items != 1 {
		t.Fatalf("pipeline lost in round trip: %+v", p)
	}

	// A trace recorded while spans could still declare a workload for a
	// span-side energy model carries "workload"/"work_bytes" keys on its
	// nodes. It still decodes, and its joules still roll up and render.
	const retired = `{"spans":[{"name":"lcpio.fig6","start_us":0,"dur_us":10,
		"self_joules":0.5,"joules":3,"children":[{"name":"nfs.write","start_us":1,
		"dur_us":5,"self_joules":2.5,"joules":2.5,"workload":"nfs.write","work_bytes":4096}]}],
		"span_totals":{},"counters":{},"gauges":{},"histograms":{}}`
	old, err := ReadSnapshot(strings.NewReader(retired))
	if err != nil {
		t.Fatalf("trace with retired workload keys refused: %v", err)
	}
	rt := old.Spans[0]
	if len(rt.Children) != 1 || rt.SelfJoules+rt.Children[0].Joules != rt.Joules || old.RootJoules() != 3 {
		t.Fatalf("retired-key trace joules do not roll up: %+v, RootJoules %v", rt, old.RootJoules())
	}
	var folded bytes.Buffer
	if err := old.WriteFolded(&folded, true); err != nil {
		t.Fatal(err)
	}
	if want := "lcpio.fig6 500000\nlcpio.fig6;nfs.write 2500000\n"; folded.String() != want {
		t.Fatalf("retired-key trace folded energy = %q, want %q", folded.String(), want)
	}
	if err := old.WriteTree(&folded); err != nil {
		t.Fatal(err)
	}
}
