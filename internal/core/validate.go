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

	study, err := runStudy(cfg, cfg.Seed+2, []string{"Broadwell"},
		func(chip *dvfs.Chip) ([]sweepJob, error) {
			codecs := make([]compress.Handle, len(paperCodecs))
			for i, name := range paperCodecs {
				var err error
				if codecs[i], err = compress.NewHandle(name, cfg.Workers); err != nil {
					return nil, err
				}
			}
			var list []sweepJob
			for _, spec := range fpdata.IsabelFields() {
				field := fpdata.Generate(spec, spec.ScaleFor(cfg.RatioElems), cfg.Seed)
				eb := compress.AbsBoundFromRelative(heldOutEB, field.Data)
				for i, codec := range paperCodecs {
					res, err := compress.Evaluate(codecs[i], field.Data, field.Dims, eb)
					if err != nil {
						return nil, fmt.Errorf("core: validation codec run: %w", err)
					}
					ratio := res.Ratio()
					w, err := machine.CompressionWorkloadWithRatio(
						codec, spec.PaperBytes, heldOutEB, ratio, chip)
					if err != nil {
						return nil, err
					}
					list = append(list, sweepJob{
						label: fmt.Sprintf("ISABEL/%s/%s", spec.Field, codec),
						w:     w,
						tags:  Entry{Codec: codec, Dataset: spec.Dataset, EB: heldOutEB, Ratio: ratio},
					})
				}
			}
			return list, nil
		})
	if err != nil {
		return Validation{}, err
	}

	sweeps := study.Sweeps()
	measured, err := averageSeries("ISABEL measured", sweeps, perf.Sweep.ScaledPower)
	if err != nil {
		return Validation{}, err
	}
	predicted := Series{Label: "Broadwell model", Freq: measured.Freq,
		Y: make([]float64, len(measured.Freq)), CI: make([]float64, len(measured.Freq))}
	for i, f := range measured.Freq {
		predicted.Y[i] = fit.Eval(f)
	}

	observedF, observedP, err := scaledObservations(sweeps)
	if err != nil {
		return Validation{}, err
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
