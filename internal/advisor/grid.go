package advisor

import (
	"fmt"
	"math"
	"sort"

	"lcpio/internal/compress"
	"lcpio/internal/dvfs"
	"lcpio/internal/nfs"
	"lcpio/internal/phases"
)

// GridOptions parameterizes the static measured grid (EvaluateGrid) — the
// pricing rule core.Advise has always used, hoisted here so the static
// recommender and the online controller share one implementation.
type GridOptions struct {
	// TotalBytes priced per candidate (0 = 512 GiB).
	TotalBytes int64
	// Chip names the dvfs model ("" = Broadwell).
	Chip string
	// Mount is the write target (zero = DefaultMount).
	Mount nfs.Mount
	// MinPSNR is the quality floor for the Meets verdict.
	MinPSNR float64
	// Codecs and Bounds span the grid (nil = {"sz","zfp"} × PaperErrorBounds).
	Codecs []string
	Bounds []float64
	// Rule pins the two tuned frequencies as fractions of base clock
	// (zero = Eqn 3, phases.PaperRule).
	Rule phases.Rule
}

// GridEntry is one measured (codec, bound) candidate priced at the tuned
// frequencies.
type GridEntry struct {
	Codec   string
	RelEB   float64
	PSNR    float64 // measured on the sample field
	Ratio   float64
	EnergyJ float64
	Seconds float64
	Meets   bool
}

// EvaluateGrid measures every (codec, bound) candidate on the sample field
// with a full compress.Evaluate and prices the tuned dump energy for the
// full volume. Results are sorted by energy ascending. This is the static
// path: no sketch, no search over workers or frequencies.
func EvaluateGrid(data []float32, dims []int, opts GridOptions) ([]GridEntry, error) {
	if opts.TotalBytes <= 0 {
		opts.TotalBytes = 512 << 30
	}
	if opts.Chip == "" {
		opts.Chip = "Broadwell"
	}
	if opts.Mount.Link.BandwidthBps == 0 {
		opts.Mount = nfs.DefaultMount()
	}
	if len(opts.Codecs) == 0 {
		opts.Codecs = []string{"sz", "zfp"}
	}
	if len(opts.Bounds) == 0 {
		opts.Bounds = append([]float64(nil), compress.PaperErrorBounds...)
	}
	chip, err := dvfs.ChipByName(opts.Chip)
	if err != nil {
		return nil, err
	}
	pr := phases.NewPricer(chip, opts.Rule)

	var out []GridEntry
	for _, codecName := range opts.Codecs {
		codec, err := compress.NewHandle(codecName, 0)
		if err != nil {
			return nil, err
		}
		for _, rel := range opts.Bounds {
			eb := compress.AbsBoundFromRelative(rel, data)
			res, err := compress.Evaluate(codec, data, dims, eb)
			if err != nil {
				return nil, fmt.Errorf("advisor: grid %s/%g: %w", codecName, rel, err)
			}
			comp, err := pr.Compress(codecName, opts.TotalBytes, rel, res.Ratio())
			if err != nil {
				return nil, err
			}
			t, err := pr.Price(comp, pr.Move(opts.Mount.Write, int64(float64(opts.TotalBytes)/res.Ratio())))
			if err != nil {
				return nil, err
			}
			out = append(out, GridEntry{
				Codec:   codecName,
				RelEB:   rel,
				PSNR:    res.PSNR,
				Ratio:   res.Ratio(),
				EnergyJ: t.Joules,
				Seconds: t.Seconds,
				Meets:   res.PSNR >= opts.MinPSNR || math.IsInf(res.PSNR, 1),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].EnergyJ < out[j].EnergyJ })
	return out, nil
}

// WorkerPoint is one worker count of the parallelism axis: energy and
// runtime of the compression leg at that count.
type WorkerPoint struct {
	Cores   int
	Seconds float64
	Joules  float64
}

// WorkerEnergies prices a compression job across worker counts at a fixed
// frequency (0 = the Eqn 3 compression clock) — the single-axis slice of
// the controller's (workers × fComp) search, exposed for the multi-core
// study (core.EnergyVsCores wraps it).
func WorkerEnergies(chipName, codec string, totalBytes int64, relEB, ratio, freqGHz float64, maxCores int) ([]WorkerPoint, error) {
	if maxCores < 1 {
		maxCores = 8
	}
	chip, err := dvfs.ChipByName(chipName)
	if err != nil {
		return nil, err
	}
	pr := phases.NewPricer(chip, phases.PaperRule())
	comp, err := pr.Compress(codec, totalBytes, relEB, ratio)
	if err != nil {
		return nil, err
	}
	out := make([]WorkerPoint, 0, maxCores)
	for n := 1; n <= maxCores; n++ {
		leg, err := pr.Leg(comp.WithCores(n).At(freqGHz))
		if err != nil {
			return nil, err
		}
		out = append(out, WorkerPoint{Cores: n, Seconds: leg.Seconds, Joules: leg.Joules})
	}
	return out, nil
}
