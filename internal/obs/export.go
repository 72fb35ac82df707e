package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// SpanNode is one span in the exported trace tree.
type SpanNode struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Open    bool   `json:"open,omitempty"`
	// SelfJoules is energy attributed directly to this span, the sum of
	// its AddEnergy calls; Joules rolls children's totals up into it, so a
	// root's Joules is the whole tree's energy.
	SelfJoules float64           `json:"self_joules,omitempty"`
	Joules     float64           `json:"joules,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Children   []*SpanNode       `json:"children,omitempty"`
}

// SpanTotal is the aggregate of all spans sharing a name.
type SpanTotal struct {
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
	Joules  float64 `json:"joules,omitempty"`
}

// StageOccupancy is one pipeline stage's accumulated per-state seconds.
type StageOccupancy struct {
	RunSeconds        float64 `json:"run_seconds"`
	WaitInputSeconds  float64 `json:"wait_input_seconds"`
	WaitOutputSeconds float64 `json:"wait_output_seconds"`
	BlockedSeconds    float64 `json:"blocked_seconds"`
	Items             int64   `json:"items,omitempty"`
}

// total is the stage's summed worker-seconds across all states.
func (o StageOccupancy) total() float64 {
	return o.RunSeconds + o.WaitInputSeconds + o.WaitOutputSeconds + o.BlockedSeconds
}

// PipelineSnapshot is one pipeline's exported occupancy accounting,
// merged over every run sharing the name.
type PipelineSnapshot struct {
	// Workers is the maximum worker count requested (clocks cover
	// requested workers, so clamped-away goroutines show as idle waits).
	Workers int `json:"workers"`
	// Runs counts PipelineTrace.End calls merged in; WallSeconds is
	// their summed wall time.
	Runs        int64                     `json:"runs"`
	WallSeconds float64                   `json:"wall_seconds"`
	Stages      map[string]StageOccupancy `json:"stages"`
	// WorkerRunSeconds is per-worker productive time.
	WorkerRunSeconds []float64 `json:"worker_run_seconds"`
	// Efficiency is total run time over workers x wall: 1.0 is perfect
	// scaling, 1/workers is a fully serialized pipeline.
	Efficiency float64 `json:"efficiency"`
	// SerializedStage is the stage with the most run time — the critical
	// path candidate — and SerializedShare its run time as a fraction of
	// the wall (near 1.0 with low Efficiency = that stage serializes).
	SerializedStage string  `json:"serialized_stage,omitempty"`
	SerializedShare float64 `json:"serialized_share,omitempty"`
}

// Summary renders the critical-path verdict as one line.
func (p PipelineSnapshot) Summary(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d workers x %d run(s), wall %.3fs, efficiency %.0f%%",
		name, p.Workers, p.Runs, p.WallSeconds, 100*p.Efficiency)
	if p.SerializedStage != "" {
		fmt.Fprintf(&b, " — critical path: %s runs %.0f%% of wall",
			p.SerializedStage, 100*p.SerializedShare)
	}
	// Dominant wait across stages, as a share of total worker-seconds.
	var wi, wo, bl, tot float64
	for _, st := range p.Stages {
		wi += st.WaitInputSeconds
		wo += st.WaitOutputSeconds
		bl += st.BlockedSeconds
		tot += st.total()
	}
	if tot > 0 {
		state, sec := "wait_input", wi
		if wo > sec {
			state, sec = "wait_output", wo
		}
		if bl > sec {
			state, sec = "blocked", bl
		}
		if sec > 0 {
			fmt.Fprintf(&b, "; dominant wait: %s %.0f%% of worker-seconds", state, 100*sec/tot)
		}
	}
	return b.String()
}

// HistogramBucket is one exported (non-cumulative) bucket.
type HistogramBucket struct {
	LE    float64 `json:"le"` // +Inf encoded as JSON null-safe math.Inf handled below
	Count int64   `json:"count"`
}

// HistogramSnapshot is a histogram's exported state.
type HistogramSnapshot struct {
	Buckets []HistogramBucket `json:"buckets"`
	Sum     float64           `json:"sum"`
	Count   int64             `json:"count"`
}

// Snapshot is a point-in-time copy of everything the registry holds.
type Snapshot struct {
	Spans      []*SpanNode                  `json:"spans"`
	SpanTotals map[string]SpanTotal         `json:"span_totals"`
	Pipelines  map[string]PipelineSnapshot  `json:"pipelines,omitempty"`
	Counters   map[string]float64           `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// RootJoules is the energy attributed across the whole trace: the sum of
// the root spans' rolled-up totals.
func (s *Snapshot) RootJoules() float64 {
	var j float64
	for _, n := range s.Spans {
		j += n.Joules
	}
	return j
}

// Snapshot copies the registry's current state. Spans still open at
// snapshot time report their duration so far and Open=true.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		SpanTotals: make(map[string]SpanTotal),
		Counters:   make(map[string]float64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}

	r.mu.Lock()
	now := time.Since(r.epoch)
	nodes := make([]*SpanNode, len(r.spans))
	for i, rec := range r.spans {
		dur := rec.dur
		if !rec.ended {
			dur = now - rec.start
		}
		n := &SpanNode{
			Name:       rec.name,
			StartUS:    rec.start.Microseconds(),
			DurUS:      dur.Microseconds(),
			Open:       !rec.ended,
			SelfJoules: rec.selfJoules,
			Joules:     rec.selfJoules,
		}
		if len(rec.attrs) > 0 {
			n.Attrs = make(map[string]string, len(rec.attrs))
			for _, a := range rec.attrs {
				n.Attrs[a.Key] = a.Value
			}
		}
		nodes[i] = n
	}
	// Roll energy up the tree. Spans append in creation order, so a
	// parent's index is always below its children's: one backward pass
	// accumulates bottom-up.
	for i := len(r.spans) - 1; i >= 0; i-- {
		if p := r.spans[i].parent; p >= 0 {
			nodes[p].Joules += nodes[i].Joules
		}
	}
	for i, rec := range r.spans {
		if rec.parent >= 0 {
			p := nodes[rec.parent]
			p.Children = append(p.Children, nodes[i])
		} else {
			snap.Spans = append(snap.Spans, nodes[i])
		}
	}
	for name, st := range r.spanStats {
		snap.SpanTotals[name] = SpanTotal{Count: st.count, Seconds: st.seconds, Joules: st.joules}
	}
	r.mu.Unlock()

	r.pipeMu.Lock()
	if len(r.pipes) > 0 {
		snap.Pipelines = make(map[string]PipelineSnapshot, len(r.pipes))
		for name, ps := range r.pipes {
			p := PipelineSnapshot{
				Workers:          ps.workers,
				Runs:             ps.runs,
				WallSeconds:      ps.wall,
				Stages:           make(map[string]StageOccupancy, len(ps.stages)),
				WorkerRunSeconds: append([]float64(nil), ps.workerRun...),
			}
			var totalRun float64
			for sname, sa := range ps.stages {
				occ := StageOccupancy{
					RunSeconds:        sa.seconds[StateRun],
					WaitInputSeconds:  sa.seconds[StateWaitInput],
					WaitOutputSeconds: sa.seconds[StateWaitOutput],
					BlockedSeconds:    sa.seconds[StateBlocked],
					Items:             sa.items,
				}
				p.Stages[sname] = occ
				totalRun += occ.RunSeconds
				if sname != stageIdle && occ.RunSeconds > 0 {
					if p.SerializedStage == "" || occ.RunSeconds > p.Stages[p.SerializedStage].RunSeconds {
						p.SerializedStage = sname
					}
				}
			}
			if ps.workers > 0 && ps.wall > 0 {
				p.Efficiency = totalRun / (float64(ps.workers) * ps.wall)
			}
			if p.SerializedStage != "" && ps.wall > 0 {
				p.SerializedShare = p.Stages[p.SerializedStage].RunSeconds / ps.wall
			}
			snap.Pipelines[name] = p
		}
	}
	r.pipeMu.Unlock()

	r.metricsMu.RLock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{Sum: h.Sum(), Count: h.Count()}
		for i := range h.counts {
			le := math.Inf(1)
			if i < len(h.buckets) {
				le = h.buckets[i]
			}
			hs.Buckets = append(hs.Buckets, HistogramBucket{LE: le, Count: h.counts[i].Load()})
		}
		snap.Histograms[name] = hs
	}
	r.metricsMu.RUnlock()
	return snap
}

// WriteJSON emits the snapshot (span tree + metrics) as indented JSON — the
// --trace exporter. The output round-trips through ReadSnapshot, so recorded
// traces can be re-rendered later (`lcpio report`).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot parses a snapshot previously written by WriteJSON.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("obs: parsing snapshot: %w", err)
	}
	return &s, nil
}

// MarshalJSON lets a HistogramBucket carry +Inf (JSON has no Inf).
func (b HistogramBucket) MarshalJSON() ([]byte, error) {
	le := "\"+Inf\""
	if !math.IsInf(b.LE, 1) {
		le = fmt.Sprintf("%g", b.LE)
	}
	return []byte(fmt.Sprintf(`{"le":%s,"count":%d}`, le, b.Count)), nil
}

// UnmarshalJSON reverses MarshalJSON, accepting "+Inf" for the last
// bucket's bound.
func (b *HistogramBucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    json.RawMessage `json:"le"`
		Count int64           `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	if s := strings.TrimSpace(string(raw.LE)); s == `"+Inf"` || s == `"Inf"` {
		b.LE = math.Inf(1)
		return nil
	}
	return json.Unmarshal(raw.LE, &b.LE)
}

// --- Prometheus text format --------------------------------------------------

// sanitizeMetricName maps an arbitrary string onto the Prometheus metric
// name alphabet [a-zA-Z0-9_:], never starting with a digit.
func sanitizeMetricName(s string) string {
	var b strings.Builder
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9' && i > 0:
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes a Prometheus label value.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WritePrometheus emits every metric — counters, gauges, histograms,
// per-name span totals as the lcpio_span_seconds_total /
// lcpio_span_count_total / lcpio_span_joules_total families, and
// pipeline occupancy as lcpio_pipeline_stage_seconds_total — in the
// Prometheus text exposition format (the --metrics exporter).
func (snap Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder

	for _, name := range sortedKeys(snap.Counters) {
		n := sanitizeMetricName(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %g\n", n, n, snap.Counters[name])
	}
	for _, name := range sortedKeys(snap.Gauges) {
		n := sanitizeMetricName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %g\n", n, n, snap.Gauges[name])
	}

	if len(snap.SpanTotals) > 0 {
		b.WriteString("# TYPE lcpio_span_seconds_total counter\n")
		for _, name := range sortedKeys(snap.SpanTotals) {
			fmt.Fprintf(&b, "lcpio_span_seconds_total{span=%q} %g\n",
				escapeLabelValue(name), snap.SpanTotals[name].Seconds)
		}
		b.WriteString("# TYPE lcpio_span_count_total counter\n")
		for _, name := range sortedKeys(snap.SpanTotals) {
			fmt.Fprintf(&b, "lcpio_span_count_total{span=%q} %d\n",
				escapeLabelValue(name), snap.SpanTotals[name].Count)
		}
		b.WriteString("# TYPE lcpio_span_joules_total counter\n")
		for _, name := range sortedKeys(snap.SpanTotals) {
			fmt.Fprintf(&b, "lcpio_span_joules_total{span=%q} %g\n",
				escapeLabelValue(name), snap.SpanTotals[name].Joules)
		}
	}

	if len(snap.Pipelines) > 0 {
		b.WriteString("# TYPE lcpio_pipeline_stage_seconds_total counter\n")
		for _, pname := range sortedKeys(snap.Pipelines) {
			p := snap.Pipelines[pname]
			for _, sname := range sortedKeys(p.Stages) {
				st := p.Stages[sname]
				for _, sv := range []struct {
					state string
					sec   float64
				}{
					{"run", st.RunSeconds},
					{"wait_input", st.WaitInputSeconds},
					{"wait_output", st.WaitOutputSeconds},
					{"blocked", st.BlockedSeconds},
				} {
					fmt.Fprintf(&b, "lcpio_pipeline_stage_seconds_total{pipeline=%q,stage=%q,state=%q} %g\n",
						escapeLabelValue(pname), escapeLabelValue(sname), sv.state, sv.sec)
				}
			}
		}
		b.WriteString("# TYPE lcpio_pipeline_stage_items_total counter\n")
		for _, pname := range sortedKeys(snap.Pipelines) {
			p := snap.Pipelines[pname]
			for _, sname := range sortedKeys(p.Stages) {
				fmt.Fprintf(&b, "lcpio_pipeline_stage_items_total{pipeline=%q,stage=%q} %d\n",
					escapeLabelValue(pname), escapeLabelValue(sname), p.Stages[sname].Items)
			}
		}
	}

	for _, name := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		n := sanitizeMetricName(name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", n)
		cum := int64(0)
		for _, bk := range h.Buckets {
			cum += bk.Count
			le := "+Inf"
			if !math.IsInf(bk.LE, 1) {
				le = fmt.Sprintf("%g", bk.LE)
			}
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", n, le, cum)
		}
		fmt.Fprintf(&b, "%s_sum %g\n%s_count %d\n", n, h.Sum, n, h.Count)
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// --- human-readable span tree ------------------------------------------------

// WriteTree prints the span hierarchy indented by depth with durations,
// rolled-up joules and attributes — the debugging view of a trace.
func (snap Snapshot) WriteTree(w io.Writer) error {
	var b strings.Builder
	var walk func(n *SpanNode, depth int)
	walk = func(n *SpanNode, depth int) {
		d := time.Duration(n.DurUS) * time.Microsecond
		fmt.Fprintf(&b, "%s%-*s %12s", strings.Repeat("  ", depth), 40-2*depth, n.Name, d)
		if n.Joules != 0 {
			fmt.Fprintf(&b, " %12.4gJ", n.Joules)
		}
		for _, k := range sortedKeys(n.Attrs) {
			fmt.Fprintf(&b, "  %s=%s", k, n.Attrs[k])
		}
		if n.Open {
			b.WriteString("  [open]")
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, root := range snap.Spans {
		walk(root, 0)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
