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

// Partition is a named slice of a study's entries — a model-data row of
// Table III or V, or one trend of a figure: the entries of one compressor,
// of one chip, of both, or (neither named) all of them.
type Partition struct {
	Name, Codec, Chip string
}

func (p Partition) has(e Entry) bool {
	return (p.Codec == "" || p.Codec == e.Codec) && (p.Chip == "" || p.Chip == e.Chip)
}

// TableIV lists the five model-data slices of Table III, which Table IV
// fits on the compression study, in paper order; TableV the three slices
// of the data-writing study.
var (
	TableIV = []Partition{{Name: "Total"}, {Name: "SZ", Codec: "sz"}, {Name: "ZFP", Codec: "zfp"},
		{Name: "Broadwell", Chip: "Broadwell"}, {Name: "Skylake", Chip: "Skylake"}}
	TableV = []Partition{{Name: "Total"}, {Name: "Broadwell", Chip: "Broadwell"}, {Name: "Skylake", Chip: "Skylake"}}
)

// Select returns the sub-study of the entries in p.
func (s *Study) Select(p Partition) *Study {
	out := &Study{Config: s.Config}
	for _, e := range s.Entries {
		if p.has(e) {
			out.Entries = append(out.Entries, e)
		}
	}
	return out
}

// groupBy lists the distinct partitions that of assigns the study's entries
// to, in the order they first appear.
func (s *Study) groupBy(of func(Entry) Partition) []Partition {
	seen := map[Partition]bool{}
	var out []Partition
	for _, e := range s.Entries {
		if p := of(e); !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// ByChip is one partition per chip present in the study — the
// generalization of Table IV's per-chip rows to arbitrary hardware sets
// (e.g. the Cascade Lake follow-up).
func (s *Study) ByChip() []Partition {
	return s.groupBy(func(e Entry) Partition { return Partition{Name: e.Chip, Chip: e.Chip} })
}

// Sweeps lists the study's sweeps in entry order.
func (s *Study) Sweeps() []perf.Sweep {
	out := make([]perf.Sweep, len(s.Entries))
	for i, e := range s.Entries {
		out[i] = e.Sweep
	}
	return out
}

// scaledObservations pools the per-sweep *scaled* observations of a set of
// sweeps: each sweep is normalized by its own max-frequency power before
// pooling, exactly as the paper scales each measurement series before
// regression.
func scaledObservations(sweeps []perf.Sweep) (fs, ps []float64, err error) {
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

// Fit regresses Eqn 2 on each partition of the study: Fit(TableIV) on the
// compression study reproduces Table IV, Fit(TableV) on the data-writing
// study Table V.
func (s *Study) Fit(parts []Partition) ([]ModelRow, error) {
	rows := make([]ModelRow, 0, len(parts))
	for _, p := range parts {
		sweeps := s.Select(p).Sweeps()
		if len(sweeps) == 0 {
			return nil, fmt.Errorf("core: partition %q selected no sweeps", p.Name)
		}
		fs, ps, err := scaledObservations(sweeps)
		if err != nil {
			return nil, err
		}
		fit, err := regress.FitPowerLaw(fs, ps)
		if err != nil {
			return nil, fmt.Errorf("core: fitting partition %q: %w", p.Name, err)
		}
		rows = append(rows, ModelRow{Name: p.Name, Fit: fit, N: len(fs)})
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
