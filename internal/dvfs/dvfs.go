// Package dvfs models the CPU frequency/voltage/power behaviour of the two
// CloudLab node types the paper measures (Table II): the Broadwell-era Xeon
// D-1548 (m510) and the Skylake-era Xeon Silver 4114 (c220g5).
//
// It stands in for the privileged host interfaces the paper uses
// (`cpufreq-set` for DVFS, RAPL via `perf` for energy): a Chip exposes the
// same 50 MHz P-state grid over the same frequency ranges, and its power
// model
//
//	P(f) = P_static + C_eff * V(f)^2 * f * utilization
//
// uses per-chip voltage curves calibrated so the *fitted* a*f^b + c power
// models land in the regimes the paper reports: a moderate power-law rise
// for Broadwell (b ~ 5) and a near-flat curve with a sharp knee near the top
// for Skylake (b >> 10, the "critical power slope" of Miyoshi et al. that
// the paper observes).
package dvfs

import (
	"fmt"
	"math"
)

// StepGHz is the P-state granularity of the paper's sweeps (50 MHz).
const StepGHz = 0.05

// Chip describes one CPU model and its power behaviour.
type Chip struct {
	Model   string // e.g. "Xeon D-1548"
	Series  string // microarchitecture: "Broadwell" or "Skylake"
	Node    string // CloudLab node type: "m510" or "c220g5"
	MinGHz  float64
	BaseGHz float64 // max non-turbo clock, the paper's f_max
	TDP     float64 // watts, whole package (Section V-A)

	// Power model internals (package-scope, single active core).
	staticW float64                 // frequency-independent package power
	ceff    float64                 // effective switched capacitance coefficient
	vcurve  func(u float64) float64 // voltage vs normalized frequency u in [0,1]

	// IPCFactor scales cycle counts: newer cores retire the same work in
	// fewer cycles, which is why the paper sees flatter runtime scaling on
	// Skylake.
	IPCFactor float64

	// MemWaitUtil is the effective dynamic-power utilization while the
	// core stalls on memory (the core and uncore stay clocked; gating is
	// imperfect).
	MemWaitUtil float64

	// IOWaitUtil is the dynamic-power utilization while blocked on the
	// network, where the core reaches deeper sleep states.
	IOWaitUtil float64
}

// Broadwell returns the m510 node's Xeon D-1548 profile.
func Broadwell() *Chip {
	return &Chip{
		Model:   "Xeon D-1548",
		Series:  "Broadwell",
		Node:    "m510",
		MinGHz:  0.8,
		BaseGHz: 2.0,
		TDP:     45,
		staticW: 8.2,
		ceff:    3.6,
		// Convex voltage rise: a moderate power-law exponent (b ~ 5 in the
		// paper's Table IV fit) when regressed as a*f^b + c.
		vcurve: func(u float64) float64 {
			return 0.61 + 0.37*math.Pow(u, 3.0)
		},
		IPCFactor:   1.0,
		MemWaitUtil: 0.60,
		IOWaitUtil:  0.15,
	}
}

// Skylake returns the c220g5 node's Xeon Silver 4114 profile.
func Skylake() *Chip {
	return &Chip{
		Model:   "Xeon Silver 4114",
		Series:  "Skylake",
		Node:    "c220g5",
		MinGHz:  0.8,
		BaseGHz: 2.2,
		TDP:     85,
		staticW: 13.5,
		// Nearly flat voltage over most of the range, then a sharp rise
		// near base clock: the critical-power-slope knee (b >> 10 in the
		// paper's Table IV fit). Schöne et al. (the paper's [22]) report
		// exactly this lack of energy-efficient scaling on Skylake-SP.
		ceff: 3.6,
		vcurve: func(u float64) float64 {
			return 0.62 + 0.02*u + 0.42*math.Pow(u, 13.0)
		},
		IPCFactor:   1.35,
		MemWaitUtil: 0.60,
		IOWaitUtil:  0.15,
	}
}

// CascadeLake returns a Xeon Gold 6230-class profile — a generation past
// the paper's matrix, for the "do these trends hold on different CPUs?"
// follow-up its conclusion calls for. Cascade Lake kept Skylake-SP's power
// management, so the critical-power-slope knee persists, with a slightly
// faster core and a higher frequency floor.
func CascadeLake() *Chip {
	return &Chip{
		Model:   "Xeon Gold 6230",
		Series:  "CascadeLake",
		Node:    "c6420",
		MinGHz:  1.0,
		BaseGHz: 2.1,
		TDP:     125,
		staticW: 14.0,
		ceff:    3.5,
		vcurve: func(u float64) float64 {
			return 0.60 + 0.03*u + 0.40*math.Pow(u, 11.0)
		},
		IPCFactor:   1.45,
		MemWaitUtil: 0.60,
		IOWaitUtil:  0.15,
	}
}

// Chips returns the hardware matrix of Table II.
func Chips() []*Chip { return []*Chip{Broadwell(), Skylake()} }

// ExtendedChips is the Table II matrix plus the Cascade Lake follow-up
// profile (see CascadeLake).
func ExtendedChips() []*Chip { return append(Chips(), CascadeLake()) }

// ChipByName finds a chip by series ("Broadwell"/"Skylake"/"CascadeLake"),
// model, or node type, case-sensitively.
func ChipByName(name string) (*Chip, error) {
	for _, c := range ExtendedChips() {
		if c.Series == name || c.Model == name || c.Node == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("dvfs: unknown chip %q", name)
}

// Frequencies returns the P-state grid from MinGHz to BaseGHz inclusive in
// 50 MHz steps — the paper's sweep domain.
func (c *Chip) Frequencies() []float64 {
	var out []float64
	// Walk in integer multiples of 50 MHz to dodge float accumulation.
	minStep := int(math.Round(c.MinGHz / StepGHz))
	maxStep := int(math.Round(c.BaseGHz / StepGHz))
	for s := minStep; s <= maxStep; s++ {
		out = append(out, float64(s)*StepGHz)
	}
	return out
}

// ClampFreq snaps f onto the chip's P-state grid.
func (c *Chip) ClampFreq(f float64) float64 {
	if f < c.MinGHz {
		f = c.MinGHz
	}
	if f > c.BaseGHz {
		f = c.BaseGHz
	}
	return math.Round(f/StepGHz) * StepGHz
}

// Voltage returns the core voltage at frequency f (clamped to the grid).
func (c *Chip) Voltage(f float64) float64 {
	f = c.ClampFreq(f)
	u := (f - c.MinGHz) / (c.BaseGHz - c.MinGHz)
	return c.vcurve(u)
}

// Power returns package power in watts at frequency f with the given
// dynamic utilization in [0,1] (1 = core fully busy).
func (c *Chip) Power(f, utilization float64) float64 {
	if utilization < 0 {
		utilization = 0
	}
	if utilization > 1 {
		utilization = 1
	}
	f = c.ClampFreq(f)
	v := c.Voltage(f)
	return c.staticW + c.ceff*v*v*f*utilization
}

// BusyPower is Power at full utilization.
func (c *Chip) BusyPower(f float64) float64 { return c.Power(f, 1) }

// PowerN returns package power with `cores` active cores at the given
// utilization: the static package power is shared, the dynamic term scales
// with active cores. Used by the multi-core extension of the machine model;
// the paper's experiments are single-core (PowerN(f, 1, u) == Power(f, u)).
func (c *Chip) PowerN(f float64, cores int, utilization float64) float64 {
	if cores < 1 {
		cores = 1
	}
	if utilization < 0 {
		utilization = 0
	}
	if utilization > 1 {
		utilization = 1
	}
	f = c.ClampFreq(f)
	v := c.Voltage(f)
	return c.staticW + float64(cores)*c.ceff*v*v*f*utilization
}

// MemWaitPower is the package power while the core stalls on memory.
func (c *Chip) MemWaitPower(f float64) float64 {
	return c.Power(f, c.MemWaitUtil)
}

// IOWaitPower is the package power while blocked on the network.
func (c *Chip) IOWaitPower(f float64) float64 {
	return c.Power(f, c.IOWaitUtil)
}

// Governor tracks the current P-state of a chip, mirroring the
// `cpufreq-set` interface the paper drives: explicit userspace frequency
// selection on the 50 MHz grid.
type Governor struct {
	chip *Chip
	cur  float64
}

// NewGovernor starts a governor at the chip's base clock.
func NewGovernor(chip *Chip) *Governor {
	return &Governor{chip: chip, cur: chip.BaseGHz}
}

// Chip returns the governed chip.
func (g *Governor) Chip() *Chip { return g.chip }

// Set requests frequency f; the governor snaps it to the P-state grid and
// returns the actual frequency applied.
func (g *Governor) Set(f float64) float64 {
	g.cur = g.chip.ClampFreq(f)
	return g.cur
}

// SetScaled requests a fraction of base clock (e.g. 0.875 for the paper's
// compression recommendation) and returns the applied frequency.
func (g *Governor) SetScaled(fraction float64) float64 {
	return g.Set(fraction * g.chip.BaseGHz)
}
