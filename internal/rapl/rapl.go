// Package rapl simulates Intel RAPL (Running Average Power Limit) energy
// accounting, replacing the `perf stat -e power/energy-pkg/` measurements
// the paper takes. It models the two artifacts that make real RAPL access
// "awkward" (per the reproduction notes): counters tick in integer
// microjoule-scale energy units and wrap around 32 bits, so correct readers
// must sample fast enough and unwrap deltas.
//
// A Meter integrates power over the phases of a simulated run and drives
// per-domain Counters; a Session pairs two counter snapshots into the
// (energy, runtime) sample the experiment harness consumes — exactly what
// `perf stat` would print.
package rapl

import (
	"fmt"
	"math"
)

// Domain identifies a RAPL measurement domain.
type Domain int

const (
	// Package covers the whole CPU socket: cores, caches, uncore.
	Package Domain = iota
	// DRAM covers the memory subsystem.
	DRAM
	numDomains
)

func (d Domain) String() string {
	switch d {
	case Package:
		return "energy-pkg"
	case DRAM:
		return "energy-ram"
	default:
		return fmt.Sprintf("Domain(%d)", int(d))
	}
}

// energyUnit is the counter granularity in joules. Real RAPL units are
// 2^-ESU joules with ESU typically 14 (61 microjoules); we use 2^-14.
const energyUnit = 1.0 / (1 << 14)

// counterMask wraps counters at 32 bits, as the MSR does.
const counterMask = (1 << 32) - 1

// Counter is a wrapping RAPL energy counter.
type Counter struct {
	raw float64 // accumulated energy units, unwrapped (internal truth)
}

// Add deposits joules into the counter.
func (c *Counter) Add(joules float64) {
	if joules < 0 || math.IsNaN(joules) {
		return
	}
	c.raw += joules / energyUnit
}

// Read returns the current 32-bit wrapped counter value, as an MSR read
// would.
func (c *Counter) Read() uint32 {
	return uint32(uint64(c.raw) & counterMask)
}

// DeltaJoules unwraps the difference between two 32-bit counter readings,
// assuming at most one wrap between samples (the reader's responsibility,
// as with real RAPL).
func DeltaJoules(before, after uint32) float64 {
	d := uint64(after) - uint64(before)
	if after < before {
		d = (1<<32 - uint64(before)) + uint64(after)
	}
	return float64(d) * energyUnit
}

// Meter integrates per-domain energy over the phases of a simulated run.
// The zero value is ready to use.
type Meter struct {
	counters [numDomains]Counter
	elapsed  float64
}

// AddPhase records a phase of `seconds` during which the domain drew
// `watts`. Elapsed time advances only for Package phases, which represent
// wall-clock program phases; DRAM deposits are concurrent.
func (m *Meter) AddPhase(d Domain, watts, seconds float64) {
	if seconds < 0 || watts < 0 {
		return
	}
	m.counters[d].Add(watts * seconds)
	if d == Package {
		m.elapsed += seconds
	}
}

// Counter exposes the wrapping counter for a domain.
func (m *Meter) Counter(d Domain) *Counter { return &m.counters[d] }

// Energy returns the total unwrapped energy of a domain in joules.
func (m *Meter) Energy(d Domain) float64 {
	return m.counters[d].raw * energyUnit
}

// Report is the perf-stat-style summary of one measured run.
type Report struct {
	PackageJoules float64
	DRAMJoules    float64
	Seconds       float64
}

// TotalJoules sums all domains.
func (r Report) TotalJoules() float64 { return r.PackageJoules + r.DRAMJoules }

// AvgPowerWatts is total energy over runtime (Eqn 1 rearranged).
func (r Report) AvgPowerWatts() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return r.TotalJoules() / r.Seconds
}

func (r Report) String() string {
	return fmt.Sprintf("%.3f J energy-pkg, %.3f J energy-ram, %.4f s elapsed (%.2f W avg)",
		r.PackageJoules, r.DRAMJoules, r.Seconds, r.AvgPowerWatts())
}

// Session measures a region of simulated execution the way `perf stat`
// brackets a process: snapshot counters at start, snapshot at stop, unwrap.
type Session struct {
	meter     *Meter
	startPkg  uint32
	startDRAM uint32
	startTime float64
	pkgAccum  float64 // unwrapped deltas accumulated across re-samples
	dramAccum float64
	running   bool
}

// Start begins a measurement session over m.
func Start(m *Meter) *Session {
	return &Session{
		meter:     m,
		startPkg:  m.counters[Package].Read(),
		startDRAM: m.counters[DRAM].Read(),
		startTime: m.elapsed,
		running:   true,
	}
}

// Sample unwraps counter progress since the last sample (or Start) and must
// be called at least once per wrap period, mirroring a real RAPL reader's
// polling duty.
func (s *Session) Sample() {
	if !s.running {
		return
	}
	pkg := s.meter.counters[Package].Read()
	dram := s.meter.counters[DRAM].Read()
	s.pkgAccum += DeltaJoules(s.startPkg, pkg)
	s.dramAccum += DeltaJoules(s.startDRAM, dram)
	s.startPkg, s.startDRAM = pkg, dram
}

// Stop finalizes the session and returns the report.
func (s *Session) Stop() Report {
	if s.running {
		s.Sample()
		s.running = false
	}
	return Report{
		PackageJoules: s.pkgAccum,
		DRAMJoules:    s.dramAccum,
		Seconds:       s.meter.elapsed - s.startTime,
	}
}
