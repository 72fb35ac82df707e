// Package phases is the repository's one pricer: the operational form of
// the paper's Eqns 2 and 3. A dump is a pipeline of stages — compute,
// compress, dedup, write, read, send, decompress — and every stage is priced
// the same way: its machine workload runs at its class's clock on a
// simulated node. A Pricer binds a chip to a tuning Rule (resolved to clocks
// once), builds stages from byte counts, and prices them; a Plan is a
// repeated pipeline whose Execute also attributes the priced joules to obs
// spans. The break-even helpers answer "where does the joule difference
// change sign" for the parity, delta and wire-compression trades.
package phases

import (
	"fmt"
	"math"
	"strconv"

	"lcpio/internal/dvfs"
	"lcpio/internal/machine"
	"lcpio/internal/netsim"
	"lcpio/internal/nfs"
	"lcpio/internal/obs"
)

// Class labels what a phase does, which determines its tuning treatment.
type Class int

const (
	// Compute is latency-critical application work: never down-clocked.
	Compute Class = iota
	// Compression covers compress, decompress and dedup stages (Eqn 3: 0.875).
	Compression
	// Writing covers NFS writes and reads and link sends (Eqn 3: 0.85).
	Writing
	numClasses
)

func (c Class) String() string {
	switch c {
	case Compute:
		return "compute"
	case Compression:
		return "compression"
	case Writing:
		return "writing"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Phase is one stage of a pipeline.
type Phase struct {
	Name  string
	Class Class
	// Workload for Compression/Writing phases (built by the Pricer's stage
	// constructors); ignored for Compute.
	Workload machine.Workload
	// ComputeSeconds is the duration of a Compute phase at base clock.
	ComputeSeconds float64
	// FreqGHz pins the frequency this phase runs at; 0 means its class's
	// clock under the pricer's rule (base clock for Plan.Execute).
	FreqGHz float64
	// Repeat runs the phase this many times; 0 means once.
	Repeat int
}

func (p Phase) repeats() int {
	if p.Repeat <= 0 {
		return 1
	}
	return p.Repeat
}

// Named returns the phase under a reporting name.
func (p Phase) Named(name string) Phase {
	p.Name = name
	return p
}

// At returns the phase pinned to a frequency — how a DVFS search prices one
// stage across the P-state grid.
func (p Phase) At(ghz float64) Phase {
	p.FreqGHz = ghz
	return p
}

// WithCores returns the phase with its CPU-bound part spread over n cores.
func (p Phase) WithCores(n int) Phase {
	p.Workload = p.Workload.WithCores(n)
	return p
}

// Plan is an ordered campaign.
type Plan struct {
	Phases []Phase
}

// Campaign builds the repeated-pipeline shape every study here uses: n
// iterations of a compute phase followed by the given I/O stages, in order.
func Campaign(n int, computeSec float64, stages ...Phase) Plan {
	ps := make([]Phase, 0, len(stages)+1)
	ps = append(ps, Phase{Name: "compute", Class: Compute, ComputeSeconds: computeSec, Repeat: n})
	for _, s := range stages {
		s.Repeat = n
		ps = append(ps, s)
	}
	return Plan{Phases: ps}
}

// Rule maps phase classes to base-clock fractions — the frequency-tuning
// rule of Eqn 3.
type Rule struct {
	CompressionFraction float64
	WritingFraction     float64
}

// PaperRule is Eqn 3: f = 0.875 f_max during compression, 0.85 f_max during
// data writing.
func PaperRule() Rule {
	return Rule{CompressionFraction: 0.875, WritingFraction: 0.85}
}

// BaseRule runs every class at base clock: the untuned schedule every
// study compares against.
func BaseRule() Rule {
	return Rule{CompressionFraction: 1, WritingFraction: 1}
}

func (r Rule) String() string {
	return fmt.Sprintf("f_IO = %.3f*f_max (compression), %.3f*f_max (data writing)",
		r.CompressionFraction, r.WritingFraction)
}

// Pricer prices stages on one chip under one rule. It is safe for
// concurrent use.
type Pricer struct {
	chip  *dvfs.Chip
	node  *machine.Node
	clock [numClasses]float64
}

// NewPricer resolves the rule's clocks on the chip (nil = Broadwell, the
// paper's reference node). The zero Rule means PaperRule.
func NewPricer(chip *dvfs.Chip, rule Rule) *Pricer {
	if chip == nil {
		chip = dvfs.Broadwell()
	}
	return newPricer(machine.NewNode(chip, 1), rule) // RunClean only: the seed is inert
}

func newPricer(node *machine.Node, rule Rule) *Pricer {
	if rule == (Rule{}) {
		rule = PaperRule()
	}
	chip := node.Chip
	return &Pricer{chip: chip, node: node, clock: [numClasses]float64{
		Compute:     chip.BaseGHz,
		Compression: chip.ClampFreq(rule.CompressionFraction * chip.BaseGHz),
		Writing:     chip.ClampFreq(rule.WritingFraction * chip.BaseGHz),
	}}
}

// Compress is the stage that compresses rawBytes with the codec at a
// range-relative bound and the given (measured or projected) ratio.
func (pr *Pricer) Compress(codec string, rawBytes int64, relEB, ratio float64) (Phase, error) {
	w, err := machine.CompressionWorkloadWithRatio(codec, rawBytes, relEB, ratio, pr.chip)
	return Phase{Name: w.Name, Class: Compression, Workload: w}, err
}

// Decompress is the stage that reconstructs rawBytes of output.
func (pr *Pricer) Decompress(codec string, rawBytes int64, relEB, ratio float64) (Phase, error) {
	w, err := machine.DecompressionWorkload(codec, rawBytes, relEB, ratio, pr.chip)
	return Phase{Name: w.Name, Class: Compression, Workload: w}, err
}

// Dedup is the delta-checkpoint chunk-and-digest pass over rawBytes.
func (pr *Pricer) Dedup(rawBytes int64) (Phase, error) {
	w, err := machine.DedupWorkload(rawBytes, pr.chip)
	return Phase{Name: w.Name, Class: Compression, Workload: w}, err
}

// Sink is where a Writing-class stage moves its bytes: it turns a byte
// count into the transfer that carries it. Mount.Write and Mount.Read
// (method values) are sinks; Link builds one for a bare network link.
type Sink func(bytes int64) nfs.Transfer

// Link is the sink of the in-transit send leg: a bare netsim link with no
// NFS window in front of it.
func Link(l netsim.Link) Sink {
	return func(bytes int64) nfs.Transfer { return machine.LinkTransfer(bytes, l) }
}

// Move is the stage that pushes bytes into a sink.
func (pr *Pricer) Move(to Sink, bytes int64) Phase {
	w := machine.TransitWorkload(to(bytes), pr.chip)
	return Phase{Name: w.Name, Class: Writing, Workload: w}
}

// Leg is one phase's priced outcome, all repeats included.
type Leg struct {
	Seconds float64
	Joules  float64
}

func (pr *Pricer) freq(p Phase) float64 {
	if p.FreqGHz != 0 {
		return p.FreqGHz
	}
	if p.Class >= 0 && p.Class < numClasses {
		return pr.clock[p.Class]
	}
	return pr.chip.BaseGHz
}

// Leg prices one phase. It is pure: no spans, no counters, no allocation.
func (pr *Pricer) Leg(p Phase) (Leg, error) {
	f := pr.freq(p)
	var sec, joule float64
	switch p.Class {
	case Compute:
		if p.ComputeSeconds < 0 {
			return Leg{}, fmt.Errorf("phases: negative compute duration in %q", p.Name)
		}
		// Compute phases are fully core-bound; duration scales with
		// frequency like any CPU-bound region.
		f = pr.chip.ClampFreq(f)
		sec = p.ComputeSeconds * pr.chip.BaseGHz / f
		joule = pr.chip.BusyPower(f) * sec
	case Compression, Writing:
		s := pr.node.RunClean(p.Workload, f)
		sec, joule = s.Seconds, s.Joules
	default:
		return Leg{}, fmt.Errorf("phases: unknown class %v in %q", p.Class, p.Name)
	}
	n := float64(p.repeats())
	return Leg{Seconds: sec * n, Joules: joule * n}, nil
}

// Totals is the outcome of pricing a pipeline.
type Totals struct {
	Seconds float64
	Joules  float64
	// ByClass splits the totals per Class for reporting.
	ByClass [numClasses]ClassTotals
	// Legs holds each phase's share, in pipeline order.
	Legs []Leg
}

// ClassTotals accumulates one class's share.
type ClassTotals struct {
	Seconds float64
	Joules  float64
}

// AvgWatts is campaign energy over campaign time.
func (t Totals) AvgWatts() float64 {
	if t.Seconds <= 0 {
		return 0
	}
	return t.Joules / t.Seconds
}

// Price totals the stages in order. Like Leg it is pure, which is what lets
// admission control and the advisor call it without touching a trace.
func (pr *Pricer) Price(stages ...Phase) (Totals, error) {
	tot := Totals{Legs: make([]Leg, len(stages))}
	for i, p := range stages {
		leg, err := pr.Leg(p)
		if err != nil {
			return Totals{}, err
		}
		tot.Legs[i] = leg
		tot.Seconds += leg.Seconds
		tot.Joules += leg.Joules
		tot.ByClass[p.Class].Seconds += leg.Seconds
		tot.ByClass[p.Class].Joules += leg.Joules
	}
	return tot, nil
}

// ApplyRule returns a copy of the plan with each phase pinned to the rule's
// clock for its class on the given chip (compute stays at base clock).
func (pl Plan) ApplyRule(rule Rule, chip *dvfs.Chip) Plan {
	pr := NewPricer(chip, rule)
	out := Plan{Phases: make([]Phase, len(pl.Phases))}
	for i, p := range pl.Phases {
		p.FreqGHz = 0
		out.Phases[i] = p.At(pr.freq(p))
	}
	return out
}

// Execute prices the plan on the node (deterministically, without
// measurement noise; unpinned phases at base clock) and records it: one
// span per phase carrying its exact joules, so the trace's root rollup
// reconciles with Totals.Joules, plus the campaign counters.
func (pl Plan) Execute(node *machine.Node) (Totals, error) {
	espan := obs.Start("phases.execute")
	defer espan.End()
	pr := newPricer(node, BaseRule())
	tot, err := pr.Price(pl.Phases...)
	if err != nil {
		return Totals{}, err
	}
	for i, p := range pl.Phases {
		leg := tot.Legs[i]
		pspan := obs.Start("phases.phase")
		if pspan.Enabled() {
			pspan.SetAttr("name", p.Name)
			pspan.SetAttr("class", p.Class.String())
			pspan.SetAttr("freq_ghz", strconv.FormatFloat(pr.freq(p), 'g', 4, 64))
		}
		pspan.AddEnergy(leg.Joules)
		pspan.End()
		obs.Add("lcpio_campaign_phases_total", int64(p.repeats()))
		obs.AddFloat("lcpio_campaign_sim_seconds_total", leg.Seconds)
		obs.AddFloat("lcpio_campaign_sim_joules_total", leg.Joules)
	}
	return tot, nil
}

// Comparison contrasts a plan at base clock against a tuned rule.
type Comparison struct {
	Base  Totals
	Tuned Totals
}

// EnergySavedPct is the campaign-level energy saving.
func (c Comparison) EnergySavedPct() float64 {
	if c.Base.Joules <= 0 {
		return 0
	}
	return 100 * (c.Base.Joules - c.Tuned.Joules) / c.Base.Joules
}

// RuntimeIncreasePct is the campaign-level slowdown.
func (c Comparison) RuntimeIncreasePct() float64 {
	if c.Base.Seconds <= 0 {
		return 0
	}
	return 100 * (c.Tuned.Seconds/c.Base.Seconds - 1)
}

// Compare executes the plan at base clock and under the rule.
func Compare(pl Plan, rule Rule, node *machine.Node) (Comparison, error) {
	base, err := pl.ApplyRule(BaseRule(), node.Chip).Execute(node)
	if err != nil {
		return Comparison{}, err
	}
	tuned, err := pl.ApplyRule(rule, node.Chip).Execute(node)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Base: base, Tuned: tuned}, nil
}

// bisectSteps halves a bracket in log space; 80 steps exhaust float64
// resolution over any bracket BreakEven is given.
const bisectSteps = 80

// BreakEven solves the question every trade here asks — where does the
// joule (or second) difference change sign — for a monotone saved(x) that
// is positive below the break-even and non-positive above it, by bisection
// in log space over [lo, hi]. The degenerate answers are 0 when the saving
// is already gone at lo (the option never pays) and +Inf when it persists
// at hi (it always pays). Callers difference priced legs, so the premise
// rests on a leg's joules being linear in bytes and monotone in bandwidth
// at any magnitude (TestLegLinearInBytes, TestMoveMonotone).
func BreakEven(saved func(x float64) float64, lo, hi float64) float64 {
	if saved(lo) <= 0 {
		return 0
	}
	if saved(hi) > 0 {
		return math.Inf(1)
	}
	for i := 0; i < bisectSteps; i++ {
		mid := math.Sqrt(lo * hi)
		if saved(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}

// ParityBreakEven is the per-checkpoint rank-loss probability at which
// carrying parity costs the same as going without: the premium paid every
// checkpoint equals the expected recovery saving,
// premiumJ = p·(redumpJ − reconstructJ). Below it plain dumps are cheaper;
// +Inf when reconstructing is not cheaper than redumping.
func ParityBreakEven(premiumJ, redumpJ, reconstructJ float64) float64 {
	if saving := redumpJ - reconstructJ; saving > 0 {
		return premiumJ / saving
	}
	return math.Inf(1)
}

// ChurnBreakEven is the churn rate c* at which a delta checkpoint costs as
// much as a full dump, modelling the delta as hashJ + framingJ + c·fullJ
// (payload scales ~linearly with churn at fixed data hardness). Below c*
// the delta wins; 0 if the fixed costs alone exceed a full dump, +Inf if a
// delta is cheaper at any churn.
func ChurnBreakEven(fullJ, hashJ, framingJ float64) float64 {
	switch margin := fullJ - hashJ - framingJ; {
	case margin <= 0:
		return 0
	case fullJ <= 0:
		return math.Inf(1)
	default:
		return margin / fullJ
	}
}

// WireBreakEven is the link bandwidth below which compressing a message
// beats shipping it raw, in closed form. Both sides ship one message over
// the same link, so the latencies cancel and each transfer time is linear
// in 1/B:
//
//	t_comp(B) = computeSeconds + 8·WireBytes(comp)/B
//	t_raw(B)  = 8·WireBytes(raw)/B
//
// which cross at B* = 8·(WireBytes(raw) − WireBytes(comp))/computeSeconds.
// WireBytes includes per-packet headers, so MTU and framing shift the
// answer. 0 means the payload did not shrink (compression never wins);
// +Inf means compute is free at this model's resolution (it always wins).
func WireBreakEven(link netsim.Link, rawBytes, compressedBytes int64, computeSeconds float64) float64 {
	dWire := link.WireBytes(rawBytes) - link.WireBytes(compressedBytes)
	if dWire <= 0 {
		return 0
	}
	if computeSeconds <= 0 {
		return math.Inf(1)
	}
	return 8 * float64(dWire) / computeSeconds
}
