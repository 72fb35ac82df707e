// Tuning: sweep a compression workload across a chip's P-states, fit the
// paper's power model P(f) = a*f^b + c to the measurements, and derive the
// energy-optimal frequency — the full Section IV/V methodology on one chip.
package main

import (
	"fmt"
	"log"

	"lcpio/internal/core"
	"lcpio/internal/dvfs"
	"lcpio/internal/machine"
	"lcpio/internal/perf"
	"lcpio/internal/regress"
	"lcpio/internal/tables"
)

func main() {
	chip := dvfs.Skylake()
	node := machine.NewNode(chip, 7)

	// Characterize SZ compressing 1 GiB at eb=1e-3 (typical ratio ~8) and
	// sweep it.
	w, err := machine.CompressionWorkloadWithRatio("sz", 1<<30, 1e-3, 8, chip)
	if err != nil {
		log.Fatal(err)
	}
	sweep, err := perf.Run(node, w, "sz on "+chip.Series, perf.DefaultRepetitions)
	if err != nil {
		log.Fatal(err)
	}

	// Fit Eqn 2 to the scaled observations.
	fs, ps, err := sweep.ScaledObservations()
	if err != nil {
		log.Fatal(err)
	}
	fit, err := regress.FitPowerLaw(fs, ps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted model on %s: P(f) = %s\n", chip.Model, fit)
	fmt.Printf("goodness of fit: SSE=%.4g RMSE=%.4g R2=%.4g\n\n",
		fit.GF.SSE, fit.GF.RMSE, fit.GF.R2)

	// Plot measurement vs model.
	scaled, _ := sweep.ScaledPower()
	model := make([]float64, len(fs))
	for i, f := range fs {
		model[i] = fit.Eval(f)
	}
	fmt.Print(tables.Plot("scaled power vs frequency", "GHz", "P/P(fmax)",
		[]tables.PlotSeries{
			{Label: "measured", X: fs, Y: scaled},
			{Label: "model", X: fs, Y: model},
		}))

	// Derive the energy-optimal frequency and compare with the paper's rule.
	frac, err := core.EnergyOptimalFraction(sweep)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := core.SavingsAt(sweep, frac)
	if err != nil {
		log.Fatal(err)
	}
	paperFrac := core.PaperRecommendation().CompressionFraction
	paper, err := core.SavingsAt(sweep, paperFrac)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nenergy-optimal: %.3f GHz (%.1f%% of base)\n",
		frac*chip.BaseGHz, frac*100)
	fmt.Printf("  %v\n", opt)
	fmt.Printf("paper's rule (%g f_max = %.3f GHz):\n", paperFrac, paperFrac*chip.BaseGHz)
	fmt.Printf("  %v\n", paper)
}
