package core

import (
	"fmt"

	"lcpio/internal/phases"
)

// Headlines collects the quantitative claims of the paper's abstract and
// conclusion so one call regenerates every headline number; the Ledger's
// headlines/ and fig6/average/ rows hold the paper's values beside them.
type Headlines struct {
	// Compression tuning at Eqn 3's compression fraction
	// (headlines/compression/*).
	Compression Savings
	// Data writing tuning at Eqn 3's writing fraction (headlines/writing/*).
	Transit Savings
	// Averages across the two classes (headlines/average/*).
	AvgPowerSavingsPct    float64
	AvgRuntimeIncreasePct float64
	AvgEnergySavingsPct   float64
	// The 512 GB dump (fig6/average/*).
	DumpSavedKJ  float64
	DumpSavedPct float64
	// Data-driven Eqn 3 (headlines/derived/*).
	Derived phases.Rule
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

// ComputeHeadlinesFrom aggregates headlines from already-run studies and
// Figure 6's dump (RunDataDump), letting callers reuse expensive
// measurements.
func ComputeHeadlinesFrom(cs, ts *Study, dump []DumpResult) (Headlines, error) {
	rec := phases.PaperRule()
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
