// Package perf is the measurement harness of Section III: it sweeps a
// workload across a chip's full P-state grid (800 MHz to base clock in
// 50 MHz steps), repeats each point (10 times in the paper), and aggregates
// energy, runtime and average power into per-frequency summaries with 95%
// confidence intervals — the raw material for the models of Section IV and
// the characteristic plots of Figures 1-4.
package perf

import (
	"fmt"
	"strconv"

	"lcpio/internal/machine"
	"lcpio/internal/obs"
	"lcpio/internal/stats"
)

// DefaultRepetitions matches the paper's repeat count per frequency step.
const DefaultRepetitions = 10

// Point aggregates the repeated measurements at one frequency.
type Point struct {
	FreqGHz float64
	Power   stats.Summary // average watts per run
	Runtime stats.Summary // seconds per run
	Energy  stats.Summary // joules per run
}

// Sweep is one workload measured across a frequency grid.
type Sweep struct {
	Label  string
	Chip   string // chip series, e.g. "Broadwell"
	Points []Point
}

// Run sweeps the workload across the node's full P-state grid, reps runs
// per frequency (0 or less means DefaultRepetitions).
func Run(node *machine.Node, w machine.Workload, label string, reps int) (Sweep, error) {
	if reps <= 0 {
		reps = DefaultRepetitions
	}
	freqs := node.Chip.Frequencies()
	if len(freqs) == 0 {
		return Sweep{}, fmt.Errorf("perf: %s has an empty frequency grid", node.Chip.Series)
	}
	span := obs.Start("perf.sweep")
	span.SetAttr("label", label)
	defer span.End()
	obs.Add("lcpio_sweep_points_expected", int64(len(freqs)))
	sw := Sweep{Label: label, Chip: node.Chip.Series, Points: make([]Point, 0, len(freqs))}
	for _, f := range freqs {
		ps := obs.Start("perf.point")
		if ps.Enabled() {
			ps.SetAttr("freq_ghz", strconv.FormatFloat(f, 'g', 4, 64))
		}
		powers := make([]float64, reps)
		times := make([]float64, reps)
		energies := make([]float64, reps)
		for r := 0; r < reps; r++ {
			s := node.Run(w, f)
			powers[r] = s.AvgWatts
			times[r] = s.Seconds
			energies[r] = s.Joules
		}
		pw, err := stats.Summarize(powers)
		if err != nil {
			ps.End()
			return Sweep{}, err
		}
		tm, _ := stats.Summarize(times)
		en, _ := stats.Summarize(energies)
		sw.Points = append(sw.Points, Point{FreqGHz: f, Power: pw, Runtime: tm, Energy: en})
		ps.End()
		obs.Add("lcpio_sweep_reps_total", int64(reps))
		obs.Add("lcpio_sweep_points_total", 1)
	}
	return sw, nil
}

// Frequencies lists the swept grid.
func (s Sweep) Frequencies() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.FreqGHz
	}
	return out
}

// MeanPower lists mean watts per point.
func (s Sweep) MeanPower() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Power.Mean
	}
	return out
}

// MeanRuntime lists mean seconds per point.
func (s Sweep) MeanRuntime() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Runtime.Mean
	}
	return out
}

// MeanEnergy lists mean joules per point.
func (s Sweep) MeanEnergy() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Energy.Mean
	}
	return out
}

// MaxFreqPoint returns the point at the highest swept frequency — the
// paper's scaling reference.
func (s Sweep) MaxFreqPoint() (Point, error) {
	if len(s.Points) == 0 {
		return Point{}, fmt.Errorf("perf: empty sweep")
	}
	best := s.Points[0]
	for _, p := range s.Points[1:] {
		if p.FreqGHz > best.FreqGHz {
			best = p
		}
	}
	return best, nil
}

// ScaledPower returns power normalized by the max-frequency mean — the
// y-axis of Figures 1 and 3.
func (s Sweep) ScaledPower() ([]float64, error) {
	ref, err := s.MaxFreqPoint()
	if err != nil {
		return nil, err
	}
	return stats.ScaleBy(s.MeanPower(), ref.Power.Mean), nil
}

// ScaledRuntime returns runtime normalized by the max-frequency mean — the
// y-axis of Figures 2 and 4.
func (s Sweep) ScaledRuntime() ([]float64, error) {
	ref, err := s.MaxFreqPoint()
	if err != nil {
		return nil, err
	}
	return stats.ScaleBy(s.MeanRuntime(), ref.Runtime.Mean), nil
}

// ScaledObservations flattens a sweep into (frequency, scaled power) pairs
// for regression against Eqn 2.
func (s Sweep) ScaledObservations() (fs, ps []float64, err error) {
	scaled, err := s.ScaledPower()
	if err != nil {
		return nil, nil, err
	}
	return s.Frequencies(), scaled, nil
}
