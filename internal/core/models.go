package core

import (
	"fmt"

	"lcpio/internal/perf"
	"lcpio/internal/regress"
)

// ModelRow is one row of Table IV or V: a named data partition and its
// fitted P(f) = a*f^b + c model with goodness of fit.
type ModelRow struct {
	Name string
	Fit  regress.PowerLawFit
	N    int // observation count behind the fit
}

func (r ModelRow) String() string {
	return fmt.Sprintf("%-10s P(f) = %-28s SSE=%.4g RMSE=%.4g R2=%.4g",
		r.Name, r.Fit.String(), r.Fit.GF.SSE, r.Fit.GF.RMSE, r.Fit.GF.R2)
}

// TableIIIPartitions lists the five model-data slices of Table III in paper
// order.
var TableIIIPartitions = []string{"Total", "SZ", "ZFP", "Broadwell", "Skylake"}

// scaledPartitionObservations pools the per-sweep *scaled* observations of
// a partition: each sweep is normalized by its own max-frequency power
// before pooling, exactly as the paper scales each measurement series
// before regression.
func scaledPartitionObservations(sweeps []perf.Sweep) (fs, ps []float64, err error) {
	for _, sw := range sweeps {
		f, p, err := sw.ScaledObservations()
		if err != nil {
			return nil, nil, err
		}
		fs = append(fs, f...)
		ps = append(ps, p...)
	}
	return fs, ps, nil
}

// FitTableIV regresses Eqn 2 on each Table III partition of the
// compression study, reproducing Table IV.
func (s *CompressionStudy) FitTableIV() ([]ModelRow, error) {
	rows := make([]ModelRow, 0, len(TableIIIPartitions))
	for _, name := range TableIIIPartitions {
		var parts []perf.Sweep
		for _, e := range s.Entries {
			switch {
			case name == "Total",
				name == "SZ" && e.Codec == "sz",
				name == "ZFP" && e.Codec == "zfp",
				(name == "Broadwell" || name == "Skylake") && e.Chip == name:
				parts = append(parts, e.Sweep)
			}
		}
		row, err := fitPartition(name, parts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// TableVPartitions lists the three model-data slices of Table V.
var TableVPartitions = []string{"Total", "Broadwell", "Skylake"}

// FitTableV regresses Eqn 2 on each transit partition, reproducing Table V.
func (s *TransitStudy) FitTableV() ([]ModelRow, error) {
	rows := make([]ModelRow, 0, len(TableVPartitions))
	for _, name := range TableVPartitions {
		var parts []perf.Sweep
		for _, e := range s.Entries {
			if name == "Total" || e.Chip == name {
				parts = append(parts, e.Sweep)
			}
		}
		row, err := fitPartition(name, parts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func fitPartition(name string, parts []perf.Sweep) (ModelRow, error) {
	if len(parts) == 0 {
		return ModelRow{}, fmt.Errorf("core: partition %q selected no sweeps", name)
	}
	fs, ps, err := scaledPartitionObservations(parts)
	if err != nil {
		return ModelRow{}, err
	}
	fit, err := regress.FitPowerLaw(fs, ps)
	if err != nil {
		return ModelRow{}, fmt.Errorf("core: fitting partition %q: %w", name, err)
	}
	return ModelRow{Name: name, Fit: fit, N: len(fs)}, nil
}

// FitPerChip fits Eqn 2 separately for every chip present in the study —
// the generalization of Table IV's per-chip rows to arbitrary hardware
// sets (e.g. the Cascade Lake follow-up).
func (s *CompressionStudy) FitPerChip() ([]ModelRow, error) {
	byChip := map[string][]perf.Sweep{}
	var order []string
	for _, e := range s.Entries {
		if _, ok := byChip[e.Chip]; !ok {
			order = append(order, e.Chip)
		}
		byChip[e.Chip] = append(byChip[e.Chip], e.Sweep)
	}
	rows := make([]ModelRow, 0, len(order))
	for _, chip := range order {
		row, err := fitPartition(chip, byChip[chip])
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FindRow returns the named row from a fitted table.
func FindRow(rows []ModelRow, name string) (ModelRow, error) {
	for _, r := range rows {
		if r.Name == name {
			return r, nil
		}
	}
	return ModelRow{}, fmt.Errorf("core: no model row %q", name)
}
