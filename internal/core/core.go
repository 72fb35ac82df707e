// Package core implements the paper's primary contribution: constructing
// power-consumption models for lossy compression and data writing from
// frequency-sweep measurements (Section IV, Tables IV and V), deriving the
// scaled power/runtime characteristics (Section V, Figures 1-4), the
// CPU-frequency tuning rule of Eqn 3, the held-out model validation of
// Figure 5, and the 512 GB compressed-data-dumping experiment of Figure 6.
//
// Everything below runs against the repository's simulated substrate (the
// dvfs/machine/nfs packages) with the real sz/zfp codecs providing
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
	// Repetitions per frequency point; 0 means the paper's 10.
	Repetitions int
	// RatioElems is the target element count for the real codec runs that
	// measure compression ratios; each dataset is scaled down to roughly
	// this many values. 0 means 256Ki (a ~1 MB field per run).
	RatioElems int
	// Chips to sweep (dvfs.ChipByName names); nil means the paper's
	// Broadwell/Skylake pair. Adding "CascadeLake" runs the follow-up
	// generation the paper's conclusion asks about.
	Chips []string
	// Workers caps the intra-codec worker goroutines used wherever the
	// drivers invoke the real codecs. 0 means all cores. Worker count never
	// changes compressed bytes, only wall-clock time.
	Workers int
}

// paperCodecs are the two compressors every study here runs; the four
// error bounds beside them are compress.PaperErrorBounds.
var paperCodecs = []string{"sz", "zfp"}

func (c Config) normalized() Config {
	if c.RatioElems <= 0 {
		c.RatioElems = 1 << 18
	}
	if len(c.Chips) == 0 {
		c.Chips = []string{"Broadwell", "Skylake"}
	}
	return c
}

// RatioTable holds measured compression ratios per (codec, dataset, eb),
// obtained by running the real codecs on scaled synthetic fields.
type RatioTable map[ratioKey]float64

type ratioKey struct {
	codec, dataset string
	eb             float64
}

// MeasureRatios runs both codecs over every spec at the paper's four error
// bounds and records the achieved ratios.
func MeasureRatios(cfg Config, specs []fpdata.Spec) (RatioTable, error) {
	cfg = cfg.normalized()
	span := obs.Start("core.measure_ratios")
	defer span.End()
	obs.Add("lcpio_sweep_points_expected",
		int64(len(specs)*len(paperCodecs)*len(compress.PaperErrorBounds)))
	rt := RatioTable{}
	for _, spec := range specs {
		field := fpdata.Generate(spec, spec.ScaleFor(cfg.RatioElems), cfg.Seed)
		for _, codecName := range paperCodecs {
			codec, err := compress.NewHandle(codecName, cfg.Workers)
			if err != nil {
				return nil, err
			}
			for _, rel := range compress.PaperErrorBounds {
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
				rt[ratioKey{codecName, spec.Dataset, rel}] = res.Ratio()
				obs.Add("lcpio_sweep_points_total", 1)
			}
		}
	}
	return rt, nil
}

// Ratio looks up a measured ratio. A study that asks for a tuple the table
// never measured has a bug; it gets an error, not a typical value.
func (rt RatioTable) Ratio(codec, dataset string, eb float64) (float64, error) {
	r, ok := rt[ratioKey{codec, dataset, eb}]
	if !ok {
		return 0, fmt.Errorf("core: no measured ratio for %s on %s at eb=%g", codec, dataset, eb)
	}
	return r, nil
}

// Entry is one sweep of a study's experiment matrix with the tags that
// place it there. Compression entries carry the codec, dataset, bound and
// measured ratio; data-writing entries carry the payload size and leave the
// codec tags empty.
type Entry struct {
	Chip    string // series name
	Codec   string
	Dataset string
	EB      float64 // range-relative bound
	Ratio   float64 // measured compression ratio
	SizeGB  int
	Sweep   perf.Sweep
}

// Study is a measurement campaign: every entry swept over its chip's full
// P-state grid with repetitions. Section IV-A's compression campaign,
// Section IV-B's data-writing campaign and Figure 5's held-out campaign are
// all Studies; what differs is the list of workloads.
type Study struct {
	Config  Config
	Entries []Entry
}

// sweepJob is one row of a study's matrix: the workload to sweep, its
// label, and the entry tags it is filed under.
type sweepJob struct {
	label string
	w     machine.Workload
	tags  Entry
}

// runStudy is the one sweep driver: per chip, a node seeded with seed runs
// that chip's jobs in order (one noise stream per chip, so order matters).
func runStudy(cfg Config, seed int64, chips []string,
	jobs func(chip *dvfs.Chip) ([]sweepJob, error)) (*Study, error) {
	study := &Study{Config: cfg}
	for _, name := range chips {
		chip, err := dvfs.ChipByName(name)
		if err != nil {
			return nil, err
		}
		list, err := jobs(chip)
		if err != nil {
			return nil, err
		}
		node := machine.NewNode(chip, seed)
		for _, j := range list {
			sw, err := perf.Run(node, j.w, j.label, cfg.Repetitions)
			if err != nil {
				return nil, err
			}
			e := j.tags
			e.Chip, e.Sweep = chip.Series, sw
			study.Entries = append(study.Entries, e)
		}
	}
	return study, nil
}

// RunCompressionStudy executes the Section IV-A measurement campaign:
// {SZ, ZFP} x the config's chips x Table-I datasets x four error bounds.
func RunCompressionStudy(cfg Config) (*Study, error) {
	cfg = cfg.normalized()
	span := obs.Start("core.compression_study")
	defer span.End()
	specs := fpdata.TableI()
	ratios, err := MeasureRatios(cfg, specs)
	if err != nil {
		return nil, err
	}
	return runStudy(cfg, cfg.Seed, cfg.Chips, compressionJobs(ratios, specs))
}

// compressionJobs lists one chip's share of the compression matrix, each
// workload informed by the measured ratio of its (codec, dataset, bound).
func compressionJobs(ratios RatioTable, specs []fpdata.Spec) func(*dvfs.Chip) ([]sweepJob, error) {
	return func(chip *dvfs.Chip) ([]sweepJob, error) {
		var list []sweepJob
		for _, codec := range paperCodecs {
			for _, spec := range specs {
				for _, rel := range compress.PaperErrorBounds {
					ratio, err := ratios.Ratio(codec, spec.Dataset, rel)
					if err != nil {
						return nil, err
					}
					w, err := machine.CompressionWorkloadWithRatio(
						codec, spec.PaperBytes, rel, ratio, chip)
					if err != nil {
						return nil, err
					}
					list = append(list, sweepJob{
						label: fmt.Sprintf("%s/%s/%s/eb=%g", chip.Series, codec, spec.Dataset, rel),
						w:     w,
						tags:  Entry{Codec: codec, Dataset: spec.Dataset, EB: rel, Ratio: ratio},
					})
				}
			}
		}
		return list, nil
	}
}

// TransitSizesGB are the payload sizes of the Section IV-B experiment.
var TransitSizesGB = []int{1, 2, 4, 8, 16}

// RunTransitStudy executes the Section IV-B campaign: 1-16 GB NFS writes on
// the config's chips across the frequency grid.
func RunTransitStudy(cfg Config) (*Study, error) {
	cfg = cfg.normalized()
	span := obs.Start("core.transit_study")
	defer span.End()
	mount := nfs.DefaultMount()
	return runStudy(cfg, cfg.Seed+1, cfg.Chips, func(chip *dvfs.Chip) ([]sweepJob, error) {
		var list []sweepJob
		for _, gb := range TransitSizesGB {
			list = append(list, sweepJob{
				label: fmt.Sprintf("%s/write/%dGB", chip.Series, gb),
				w:     machine.TransitWorkload(mount.Write(int64(gb)<<30), chip),
				tags:  Entry{SizeGB: gb},
			})
		}
		return list, nil
	})
}
