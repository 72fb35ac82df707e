// Package core implements the paper's primary contribution: constructing
// power-consumption models for lossy compression and data writing from
// frequency-sweep measurements (Section IV, Tables IV and V), deriving the
// scaled power/runtime characteristics (Section V, Figures 1-4), the
// CPU-frequency tuning rule of Eqn 3, the held-out model validation of
// Figure 5, and the 512 GB compressed-data-dumping experiment of Figure 6.
//
// Everything below runs against the repository's simulated substrate (the
// dvfs/rapl/machine/nfs packages) with the real sz/zfp codecs providing
// compression ratios; see DESIGN.md for the substitution inventory.
package core

import (
	"fmt"

	"lcpio/internal/compress"
	"lcpio/internal/dvfs"
	"lcpio/internal/fpdata"
	"lcpio/internal/machine"
	"lcpio/internal/nfs"
	"lcpio/internal/obs"
	"lcpio/internal/perf"
)

// Config controls an experiment run. The zero value is usable: paper-scale
// sweeps, seeded deterministically.
type Config struct {
	// Seed drives every stochastic component (field generation and
	// measurement noise); runs are reproducible per seed.
	Seed int64
	// Repetitions per frequency point (paper: 10).
	Repetitions int
	// RatioElems is the target element count for the real codec runs that
	// measure compression ratios; each dataset is scaled down to roughly
	// this many values. 0 means 256Ki (a ~1 MB field per run).
	RatioElems int
	// Codecs to study; nil means both of the paper's ("sz", "zfp").
	Codecs []string
	// ErrorBounds (range-relative); nil means the paper's four.
	ErrorBounds []float64
	// Chips to sweep (dvfs.ChipByName names); nil means the paper's
	// Broadwell/Skylake pair. Adding "CascadeLake" runs the follow-up
	// generation the paper's conclusion asks about.
	Chips []string
	// Workers caps the intra-codec worker goroutines used wherever the
	// drivers invoke the real codecs. 0 means all cores. Worker count never
	// changes compressed bytes, only wall-clock time.
	Workers int
}

func (c Config) normalized() Config {
	if c.Repetitions <= 0 {
		c.Repetitions = perf.DefaultRepetitions
	}
	if c.RatioElems <= 0 {
		c.RatioElems = 1 << 18
	}
	if len(c.Codecs) == 0 {
		c.Codecs = []string{"sz", "zfp"}
	}
	if len(c.ErrorBounds) == 0 {
		c.ErrorBounds = append([]float64(nil), compress.PaperErrorBounds...)
	}
	if len(c.Chips) == 0 {
		c.Chips = []string{"Broadwell", "Skylake"}
	}
	return c
}

// resolveChips maps the config's chip names to profiles.
func (c Config) resolveChips() ([]*dvfs.Chip, error) {
	out := make([]*dvfs.Chip, 0, len(c.Chips))
	for _, name := range c.Chips {
		chip, err := dvfs.ChipByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, chip)
	}
	return out, nil
}

// RatioTable caches measured compression ratios per (codec, dataset, eb),
// obtained by running the real codecs on scaled synthetic fields.
type RatioTable struct {
	entries map[string]float64
}

func ratioKey(codec, dataset string, eb float64) string {
	return fmt.Sprintf("%s|%s|%g", codec, dataset, eb)
}

// MeasureRatios runs every codec over every spec at every error bound and
// records the achieved ratios.
func MeasureRatios(cfg Config, specs []fpdata.Spec) (*RatioTable, error) {
	cfg = cfg.normalized()
	span := obs.Start("core.measure_ratios")
	defer span.End()
	obs.Add("lcpio_sweep_points_expected",
		int64(len(specs)*len(cfg.Codecs)*len(cfg.ErrorBounds)))
	rt := &RatioTable{entries: make(map[string]float64)}
	for _, spec := range specs {
		field := fpdata.Generate(spec, spec.ScaleFor(cfg.RatioElems), cfg.Seed)
		for _, codecName := range cfg.Codecs {
			codec, err := compress.NewHandle(codecName, cfg.Workers)
			if err != nil {
				return nil, err
			}
			for _, rel := range cfg.ErrorBounds {
				eb := compress.AbsBoundFromRelative(rel, field.Data)
				res, err := compress.Evaluate(codec, field.Data, field.Dims, eb)
				if err != nil {
					return nil, fmt.Errorf("core: ratio measurement %s/%s/%g: %w",
						codecName, spec.Dataset, rel, err)
				}
				if res.MaxAbsError > eb {
					return nil, fmt.Errorf("core: %s violated bound on %s: %g > %g",
						codecName, spec.Dataset, res.MaxAbsError, eb)
				}
				rt.entries[ratioKey(codecName, spec.Dataset, rel)] = res.Ratio()
				obs.Add("lcpio_sweep_points_total", 1)
			}
		}
	}
	return rt, nil
}

// Ratio looks up a measured ratio, falling back to a typical value of 8
// when the tuple was not measured.
func (rt *RatioTable) Ratio(codec, dataset string, eb float64) float64 {
	if rt == nil {
		return 8
	}
	if r, ok := rt.entries[ratioKey(codec, dataset, eb)]; ok {
		return r
	}
	return 8
}

// Len reports the number of measured tuples.
func (rt *RatioTable) Len() int { return len(rt.entries) }

// CompressionEntry is one sweep of the compression experiment matrix.
type CompressionEntry struct {
	Chip    string // series name
	Codec   string
	Dataset string
	EB      float64 // range-relative bound
	Ratio   float64 // measured compression ratio
	Sweep   perf.Sweep
}

// CompressionStudy holds the full Section IV-A measurement campaign:
// {SZ, ZFP} x {Broadwell, Skylake} x Table-I datasets x four error bounds,
// each swept over the full P-state grid with repetitions.
type CompressionStudy struct {
	Config  Config
	Entries []CompressionEntry
	Ratios  *RatioTable
}

// RunCompressionStudy executes the compression measurement campaign.
func RunCompressionStudy(cfg Config) (*CompressionStudy, error) {
	cfg = cfg.normalized()
	span := obs.Start("core.compression_study")
	defer span.End()
	specs := fpdata.TableI()
	ratios, err := MeasureRatios(cfg, specs)
	if err != nil {
		return nil, err
	}
	study := &CompressionStudy{Config: cfg, Ratios: ratios}
	chips, err := cfg.resolveChips()
	if err != nil {
		return nil, err
	}
	for _, chip := range chips {
		node := machine.NewNode(chip, cfg.Seed)
		for _, codec := range cfg.Codecs {
			for _, spec := range specs {
				for _, rel := range cfg.ErrorBounds {
					ratio := ratios.Ratio(codec, spec.Dataset, rel)
					w, err := machine.CompressionWorkloadWithRatio(
						codec, spec.PaperBytes, rel, ratio, chip)
					if err != nil {
						return nil, err
					}
					label := fmt.Sprintf("%s/%s/%s/eb=%g", chip.Series, codec, spec.Dataset, rel)
					sw, err := perf.Run(node, w, label, perf.Config{Repetitions: cfg.Repetitions})
					if err != nil {
						return nil, err
					}
					study.Entries = append(study.Entries, CompressionEntry{
						Chip: chip.Series, Codec: codec, Dataset: spec.Dataset,
						EB: rel, Ratio: ratio, Sweep: sw,
					})
				}
			}
		}
	}
	return study, nil
}

// TransitSizesGB are the payload sizes of the Section IV-B experiment.
var TransitSizesGB = []int{1, 2, 4, 8, 16}

// TransitEntry is one sweep of the data-transit experiment matrix.
type TransitEntry struct {
	Chip   string
	SizeGB int
	Sweep  perf.Sweep
}

// TransitStudy holds the Section IV-B campaign: 1-16 GB NFS writes on both
// chips across the frequency grid.
type TransitStudy struct {
	Config  Config
	Mount   nfs.Mount
	Entries []TransitEntry
}

// RunTransitStudy executes the data-writing measurement campaign.
func RunTransitStudy(cfg Config) (*TransitStudy, error) {
	cfg = cfg.normalized()
	span := obs.Start("core.transit_study")
	defer span.End()
	mount := nfs.DefaultMount()
	study := &TransitStudy{Config: cfg, Mount: mount}
	chips, err := cfg.resolveChips()
	if err != nil {
		return nil, err
	}
	for _, chip := range chips {
		node := machine.NewNode(chip, cfg.Seed+1)
		for _, gb := range TransitSizesGB {
			tr := mount.Write(int64(gb) << 30)
			w := machine.TransitWorkload(tr, chip)
			label := fmt.Sprintf("%s/write/%dGB", chip.Series, gb)
			sw, err := perf.Run(node, w, label, perf.Config{Repetitions: cfg.Repetitions})
			if err != nil {
				return nil, err
			}
			study.Entries = append(study.Entries, TransitEntry{
				Chip: chip.Series, SizeGB: gb, Sweep: sw,
			})
		}
	}
	return study, nil
}
