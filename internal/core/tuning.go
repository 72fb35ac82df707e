package core

import (
	"fmt"
	"math"

	"lcpio/internal/perf"
	"lcpio/internal/phases"
)

// Recommendation is the frequency-tuning rule of Eqn 3, expressed as
// fractions of the base clock — the pricer's Rule under the paper's name.
type Recommendation = phases.Rule

// PaperRecommendation returns the paper's published rule (Eqn 3).
func PaperRecommendation() Recommendation { return phases.PaperRule() }

// Savings quantifies the effect of running at a reduced frequency relative
// to base clock, from measured sweep data.
type Savings struct {
	Fraction   float64 // of base clock
	PowerPct   float64 // average power reduction, percent
	RuntimePct float64 // runtime increase, percent
	EnergyPct  float64 // total energy reduction, percent
}

func (s Savings) String() string {
	return fmt.Sprintf("at %.1f%% f_max: power -%.1f%%, runtime +%.1f%%, energy -%.1f%%",
		s.Fraction*100, s.PowerPct, s.RuntimePct, s.EnergyPct)
}

// SavingsAt evaluates a sweep at the given fraction of its top frequency
// against the top frequency itself.
func SavingsAt(sw perf.Sweep, fraction float64) (Savings, error) {
	ref, err := sw.MaxFreqPoint()
	if err != nil {
		return Savings{}, err
	}
	target := fraction * ref.FreqGHz
	var best *perf.Point
	for i := range sw.Points {
		p := &sw.Points[i]
		if best == nil || math.Abs(p.FreqGHz-target) < math.Abs(best.FreqGHz-target) {
			best = p
		}
	}
	if ref.Power.Mean <= 0 || ref.Runtime.Mean <= 0 || ref.Energy.Mean <= 0 {
		return Savings{}, fmt.Errorf("core: degenerate reference point")
	}
	return Savings{
		Fraction:   fraction,
		PowerPct:   100 * (1 - best.Power.Mean/ref.Power.Mean),
		RuntimePct: 100 * (best.Runtime.Mean/ref.Runtime.Mean - 1),
		EnergyPct:  100 * (1 - best.Energy.Mean/ref.Energy.Mean),
	}, nil
}

// EnergyOptimalFraction finds the fraction of base clock minimizing the
// measured mean energy of a sweep — the operational version of the paper's
// "find where power and runtime are optimized" trade-off.
func EnergyOptimalFraction(sw perf.Sweep) (float64, error) {
	ref, err := sw.MaxFreqPoint()
	if err != nil {
		return 0, err
	}
	best := ref
	for _, p := range sw.Points {
		if p.Energy.Mean < best.Energy.Mean {
			best = p
		}
	}
	return best.FreqGHz / ref.FreqGHz, nil
}

// DeriveRecommendation computes a data-driven Eqn 3 from the two studies:
// the per-class mean of each sweep's energy-optimal fraction.
func DeriveRecommendation(compression, writing *Study) (Recommendation, error) {
	cf, err := compression.meanOptimalFraction()
	if err != nil {
		return Recommendation{}, err
	}
	wf, err := writing.meanOptimalFraction()
	if err != nil {
		return Recommendation{}, err
	}
	return Recommendation{CompressionFraction: cf, WritingFraction: wf}, nil
}

func (s *Study) meanOptimalFraction() (float64, error) {
	if len(s.Entries) == 0 {
		return 0, fmt.Errorf("core: no sweeps to optimize")
	}
	var sum float64
	for _, e := range s.Entries {
		f, err := EnergyOptimalFraction(e.Sweep)
		if err != nil {
			return 0, err
		}
		sum += f
	}
	return sum / float64(len(s.Entries)), nil
}

// Savings averages the study's per-sweep savings at a tuning fraction —
// the per-class numbers the paper quotes (19.4% power / +7.5% runtime at
// -12.5% for compression; 11.2% / +9.3% at -15% for writing).
func (s *Study) Savings(fraction float64) (Savings, error) {
	if len(s.Entries) == 0 {
		return Savings{}, fmt.Errorf("core: no sweeps")
	}
	var acc Savings
	for _, e := range s.Entries {
		sv, err := SavingsAt(e.Sweep, fraction)
		if err != nil {
			return Savings{}, err
		}
		acc.PowerPct += sv.PowerPct
		acc.RuntimePct += sv.RuntimePct
		acc.EnergyPct += sv.EnergyPct
	}
	n := float64(len(s.Entries))
	return Savings{
		Fraction:   fraction,
		PowerPct:   acc.PowerPct / n,
		RuntimePct: acc.RuntimePct / n,
		EnergyPct:  acc.EnergyPct / n,
	}, nil
}
