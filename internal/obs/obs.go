// Package obs is the repository's zero-dependency telemetry subsystem:
// hierarchical wall-clock spans, typed metrics (counters, gauges,
// fixed-bucket histograms) and exporters (Prometheus text format, JSON,
// and a human-readable span tree).
//
// The package mirrors how the paper itself works: its models are built
// from per-phase attribution — energy and runtime measured separately for
// compression and data transit (Section III) — so the pipelines that
// reproduce those numbers are instrumented at the same phase boundaries.
//
// Design: one process-global *Registry installed with Use. Every
// instrumentation entry point (Start, Add, AddFloat, Set, Observe) first
// loads that pointer; when no registry is installed the call returns
// immediately, performs zero allocations and costs a few nanoseconds, so
// hot paths can stay instrumented unconditionally. A Registry may also be
// given a Recorder tap that receives live span and metric events (the CLI
// progress line is such a tap).
//
// Span parentage is tracked with an explicit stack inside the registry:
// Start creates a child of the most recently started un-ended span, which
// matches the sequential structure of the experiment pipelines. Code that
// fans out to goroutines should use Span.Child for explicit parentage.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Recorder taps live telemetry events from an enabled Registry. All
// methods may be called concurrently and must be cheap; heavy consumers
// should sample. The zero Registry has no tap.
type Recorder interface {
	// SpanStart fires when a span begins. parent is -1 for roots.
	SpanStart(id, parent int, name string)
	// SpanEnd fires when a span ends with its wall-clock duration.
	SpanEnd(id int, name string, elapsed time.Duration)
	// MetricUpdate fires after a counter add, gauge set or histogram
	// observation, with the metric's new value (for histograms, the
	// observed sample).
	MetricUpdate(name string, value float64)
}

// active is the installed registry; nil disables all instrumentation.
var active atomic.Pointer[Registry]

// Use installs r as the process-global registry and returns the one it
// replaced, so a caller can put it back. Pass nil to disable telemetry (the
// default state).
func Use(r *Registry) *Registry { return active.Swap(r) }

// Enabled reports whether a registry is installed.
func Enabled() bool { return active.Load() != nil }

// Attr is one key/value annotation on a span.
type Attr struct {
	Key, Value string
}

// spanRecord is the registry's storage for one span.
type spanRecord struct {
	name       string
	parent     int32
	start      time.Duration // since registry epoch
	dur        time.Duration
	ended      bool
	attrs      []Attr
	selfJoules float64 // energy attributed directly to this span
	workload   string  // workload class priced by the energy model at End
	workBytes  int64   // raw bytes the workload covers
}

// spanStat accumulates per-name span totals for the metrics exporters.
type spanStat struct {
	count   int64
	seconds float64
	joules  float64
}

// EnergyModel prices one ended span's declared workload (see
// Span.SetWorkload) in joules. class is the workload class, bytes the raw
// bytes it covered, elapsed the span's wall-clock duration. Returning 0
// leaves the span unpriced. The model runs outside the registry lock, so
// it may be arbitrary code (including code that consults the registry).
type EnergyModel func(class string, bytes int64, elapsed time.Duration) float64

// Registry collects spans and metrics. Create with NewRegistry and
// install with Use. All methods are safe for concurrent use.
type Registry struct {
	epoch  time.Time
	tap    Recorder    // set before Use; not mutated afterwards
	energy EnergyModel // set before Use; not mutated afterwards

	mu        sync.Mutex
	spans     []spanRecord
	stack     []int32
	spanStats map[string]*spanStat

	pipeMu sync.Mutex
	pipes  map[string]*pipelineStats

	metricsMu sync.RWMutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
}

// NewRegistry returns an empty registry whose span clock starts now.
func NewRegistry() *Registry {
	return &Registry{
		epoch:     time.Now(),
		spanStats: make(map[string]*spanStat),
		pipes:     make(map[string]*pipelineStats),
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		hists:     make(map[string]*Histogram),
	}
}

// SetTap attaches a live event recorder. Call before Use; the tap is
// read without synchronization once the registry is installed.
func (r *Registry) SetTap(rec Recorder) { r.tap = rec }

// SetEnergyModel attaches the model that prices span workloads at End.
// Call before Use; the model is read without synchronization once the
// registry is installed.
func (r *Registry) SetEnergyModel(m EnergyModel) { r.energy = m }

// Span is a handle to one span. The zero Span (returned when telemetry
// is disabled) ignores every method call.
type Span struct {
	reg *Registry
	id  int32
}

// Enabled reports whether the span records anything; use it to skip
// building expensive attribute strings when telemetry is off.
func (s Span) Enabled() bool { return s.reg != nil }

// Start begins a span as a child of the most recently started un-ended
// span (or as a root). Returns the zero Span when telemetry is disabled.
func Start(name string) Span {
	r := active.Load()
	if r == nil {
		return Span{}
	}
	return r.Start(name)
}

// Start begins a span on this registry; see the package-level Start.
func (r *Registry) Start(name string) Span {
	r.mu.Lock()
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, spanRecord{name: name, parent: parent, start: time.Since(r.epoch)})
	r.stack = append(r.stack, id)
	r.mu.Unlock()
	if r.tap != nil {
		r.tap.SpanStart(int(id), int(parent), name)
	}
	return Span{reg: r, id: id}
}

// Child begins a span explicitly parented under s, without consulting the
// registry's span stack — the race-free form for goroutine fan-out.
func (s Span) Child(name string) Span {
	if s.reg == nil {
		return Span{}
	}
	r := s.reg
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, spanRecord{name: name, parent: s.id, start: time.Since(r.epoch)})
	r.mu.Unlock()
	if r.tap != nil {
		r.tap.SpanStart(int(id), int(s.id), name)
	}
	return Span{reg: r, id: id}
}

// SetAttr annotates the span with a key/value pair. Calling it after End
// is a no-op: the record is frozen once the span has ended.
func (s Span) SetAttr(key, value string) {
	if s.reg == nil {
		return
	}
	s.reg.mu.Lock()
	rec := &s.reg.spans[s.id]
	if !rec.ended {
		rec.attrs = append(rec.attrs, Attr{Key: key, Value: value})
	}
	s.reg.mu.Unlock()
}

// AddEnergy attributes joules of simulated energy directly to the span.
// Energy rolls up the span tree in Snapshot, so a parent's total includes
// its children's. Calling AddEnergy after End is a no-op.
func (s Span) AddEnergy(joules float64) {
	if s.reg == nil || joules == 0 {
		return
	}
	s.reg.mu.Lock()
	rec := &s.reg.spans[s.id]
	if !rec.ended {
		rec.selfJoules += joules
	}
	s.reg.mu.Unlock()
}

// SetWorkload declares what the span is doing — a workload class (by
// convention the span name, e.g. "sz.compress") and the raw bytes it
// covers — so the registry's EnergyModel can price it when the span ends.
// Calling SetWorkload after End is a no-op.
func (s Span) SetWorkload(class string, bytes int64) {
	if s.reg == nil {
		return
	}
	s.reg.mu.Lock()
	rec := &s.reg.spans[s.id]
	if !rec.ended {
		rec.workload = class
		rec.workBytes = bytes
	}
	s.reg.mu.Unlock()
}

// End closes the span and returns its wall-clock duration (zero when
// telemetry is disabled). Ending a span twice is a no-op. Per-name
// duration totals feed the lcpio_span_seconds_total metric family.
func (s Span) End() time.Duration {
	if s.reg == nil {
		return 0
	}
	r := s.reg
	r.mu.Lock()
	rec := &r.spans[s.id]
	if rec.ended {
		r.mu.Unlock()
		return rec.dur
	}
	rec.ended = true
	rec.dur = time.Since(r.epoch) - rec.start
	for i := len(r.stack) - 1; i >= 0; i-- {
		if r.stack[i] == s.id {
			r.stack = append(r.stack[:i], r.stack[i+1:]...)
			break
		}
	}
	name, d := rec.name, rec.dur
	workload, workBytes := rec.workload, rec.workBytes
	r.mu.Unlock()

	// Price the declared workload outside the registry lock: the model is
	// arbitrary code and may itself consult the registry.
	var priced float64
	if workload != "" && r.energy != nil {
		priced = r.energy(workload, workBytes, d)
	}

	r.mu.Lock()
	rec = &r.spans[s.id]
	rec.selfJoules += priced
	st := r.spanStats[name]
	if st == nil {
		st = &spanStat{}
		r.spanStats[name] = st
	}
	st.count++
	st.seconds += d.Seconds()
	st.joules += rec.selfJoules
	r.mu.Unlock()
	if r.tap != nil {
		r.tap.SpanEnd(int(s.id), name, d)
	}
	return d
}
