package core

import "fmt"

// Headlines collects the quantitative claims of the paper's abstract and
// conclusion so one call regenerates every headline number for
// paper-vs-measured comparison in EXPERIMENTS.md.
type Headlines struct {
	// Compression tuning at 0.875 f_max (paper: 19.4% power, +7.5% runtime).
	Compression Savings
	// Data writing tuning at 0.85 f_max (paper: 11.2% power, +9.3% runtime).
	Transit Savings
	// Averages across the two classes (paper: 14.3% savings, +8.4% runtime).
	AvgPowerSavingsPct    float64
	AvgRuntimeIncreasePct float64
	AvgEnergySavingsPct   float64
	// The 512 GB dump (paper: 6.5 kJ, 13%).
	DumpSavedKJ  float64
	DumpSavedPct float64
	// Data-driven Eqn 3 versus the paper's published fractions.
	Derived Recommendation
}

func (h Headlines) String() string {
	return fmt.Sprintf(
		"compression: %v\n"+
			"data writing: %v\n"+
			"average: power -%.1f%%, runtime +%.1f%%, energy -%.1f%%\n"+
			"512GB dump: saved %.1f kJ (%.1f%%)\n"+
			"derived rule: %v",
		h.Compression, h.Transit,
		h.AvgPowerSavingsPct, h.AvgRuntimeIncreasePct, h.AvgEnergySavingsPct,
		h.DumpSavedKJ, h.DumpSavedPct, h.Derived)
}

// ComputeHeadlinesFrom aggregates headlines from already-run studies,
// letting callers reuse expensive study objects.
func ComputeHeadlinesFrom(cfg Config, cs, ts *Study) (Headlines, error) {
	rec := PaperRecommendation()
	comp, err := cs.Savings(rec.CompressionFraction)
	if err != nil {
		return Headlines{}, err
	}
	trans, err := ts.Savings(rec.WritingFraction)
	if err != nil {
		return Headlines{}, err
	}
	derived, err := DeriveRecommendation(cs, ts)
	if err != nil {
		return Headlines{}, err
	}
	dump, err := RunDataDump(cfg, DumpConfig{})
	if err != nil {
		return Headlines{}, err
	}
	savedJ, savedPct, err := AverageDumpSavings(dump)
	if err != nil {
		return Headlines{}, err
	}
	return Headlines{
		Compression:           comp,
		Transit:               trans,
		AvgPowerSavingsPct:    (comp.PowerPct + trans.PowerPct) / 2,
		AvgRuntimeIncreasePct: (comp.RuntimePct + trans.RuntimePct) / 2,
		AvgEnergySavingsPct:   (comp.EnergyPct + trans.EnergyPct) / 2,
		DumpSavedKJ:           savedJ / 1e3,
		DumpSavedPct:          savedPct,
		Derived:               derived,
	}, nil
}
