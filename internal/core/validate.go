package core

import (
	"fmt"

	"lcpio/internal/compress"
	"lcpio/internal/dvfs"
	"lcpio/internal/fpdata"
	"lcpio/internal/machine"
	"lcpio/internal/perf"
	"lcpio/internal/regress"
	"lcpio/internal/stats"
)

// Validation is the Figure 5 result: the Broadwell power model from Table
// IV evaluated against fresh measurements on the held-out Hurricane-ISABEL
// dataset (six 95 MB fields, both compressors, 1e-4 error bound).
type Validation struct {
	// Measured is the averaged scaled-power characteristic of the held-out
	// sweeps; Predicted is the model curve on the same grid.
	Measured  Series
	Predicted Series
	GF        stats.GoodnessOfFit
}

// ValidateBroadwellModel reruns the Section VI-A experiment: sweep each
// ISABEL field with SZ and ZFP at eb=1e-4 on the Broadwell node, then score
// the supplied Table IV Broadwell fit against the new scaled observations.
func ValidateBroadwellModel(cfg Config, fit regress.PowerLawFit) (Validation, error) {
	cfg = cfg.normalized()
	const heldOutEB = 1e-4

	chip := dvfs.Broadwell()
	node := machine.NewNode(chip, cfg.Seed+2)
	specs := fpdata.IsabelFields()

	codecs := make([]compress.Handle, len(cfg.Codecs))
	for i, name := range cfg.Codecs {
		var err error
		if codecs[i], err = compress.NewHandle(name, cfg.Workers); err != nil {
			return Validation{}, err
		}
	}

	var sweeps []perf.Sweep
	var observedF, observedP []float64
	for _, spec := range specs {
		field := fpdata.Generate(spec, spec.ScaleFor(cfg.RatioElems), cfg.Seed)
		for i, codecName := range cfg.Codecs {
			codec := codecs[i]
			eb := compress.AbsBoundFromRelative(heldOutEB, field.Data)
			res, err := compress.Evaluate(codec, field.Data, field.Dims, eb)
			if err != nil {
				return Validation{}, fmt.Errorf("core: validation codec run: %w", err)
			}
			w, err := machine.CompressionWorkloadWithRatio(
				codecName, spec.PaperBytes, heldOutEB, res.Ratio(), chip)
			if err != nil {
				return Validation{}, err
			}
			sw, err := perf.Run(node, w,
				fmt.Sprintf("ISABEL/%s/%s", spec.Field, codecName),
				perf.Config{Repetitions: cfg.Repetitions})
			if err != nil {
				return Validation{}, err
			}
			sweeps = append(sweeps, sw)
			fs, ps, err := sw.ScaledObservations()
			if err != nil {
				return Validation{}, err
			}
			observedF = append(observedF, fs...)
			observedP = append(observedP, ps...)
		}
	}

	measured, err := averageSeries("ISABEL measured", sweeps,
		func(sw perf.Sweep) ([]float64, error) { return sw.ScaledPower() })
	if err != nil {
		return Validation{}, err
	}
	predicted := Series{Label: "Broadwell model", Freq: measured.Freq,
		Y: make([]float64, len(measured.Freq)), CI: make([]float64, len(measured.Freq))}
	for i, f := range measured.Freq {
		predicted.Y[i] = fit.Eval(f)
	}

	pred := make([]float64, len(observedF))
	for i, f := range observedF {
		pred[i] = fit.Eval(f)
	}
	gf, err := stats.Fit(observedP, pred, 0)
	if err != nil {
		return Validation{}, err
	}
	return Validation{Measured: measured, Predicted: predicted, GF: gf}, nil
}
