package core

import (
	"fmt"
	"math"

	"lcpio/internal/advisor"
	"lcpio/internal/fpdata"
)

// AdvisorConfig frames the practical question an I/O-phase owner asks: "I
// must dump this much data and keep at least this reconstruction quality —
// which codec and error bound cost the least energy?" It extends the
// paper's tuning rule from frequencies to the full (codec, bound,
// frequency) configuration space: the advisor's static grid options plus
// the dataset the sample field is drawn from.
type AdvisorConfig struct {
	advisor.GridOptions
	// Dataset whose statistics drive ratio/quality measurement; empty
	// means NYX.
	Dataset string
}

// Advice is one evaluated configuration: a measured (codec, bound)
// candidate priced at the tuned frequencies.
type Advice = advisor.GridEntry

// Advise evaluates every (codec, bound) candidate on a sample field,
// models the tuned dump energy for the full volume, and returns all
// candidates sorted by energy with the quality verdict attached. The first
// entry with Meets=true is the recommendation. The measurement and pricing
// live in advisor.EvaluateGrid — this is the static slice of the online
// controller's search space. Codecs default to the experiment config's.
func Advise(cfg Config, acfg AdvisorConfig) ([]Advice, error) {
	cfg = cfg.normalized()
	if acfg.Dataset == "" {
		acfg.Dataset = "NYX"
	}
	if len(acfg.Codecs) == 0 {
		acfg.Codecs = cfg.Codecs
	}
	spec, err := fpdata.Lookup(acfg.Dataset, "")
	if err != nil {
		return nil, err
	}
	field := fpdata.Generate(spec, spec.ScaleFor(cfg.RatioElems), cfg.Seed)
	grid, err := advisor.EvaluateGrid(field.Data, field.Dims, acfg.GridOptions)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return grid, nil
}

// Recommend returns the least-energy advice meeting the quality floor, or
// an error naming the closest candidate when none qualifies.
func Recommend(cfg Config, acfg AdvisorConfig) (Advice, error) {
	all, err := Advise(cfg, acfg)
	if err != nil {
		return Advice{}, err
	}
	for _, a := range all {
		if a.Meets {
			return a, nil
		}
	}
	best := Advice{PSNR: math.Inf(-1)}
	for _, a := range all {
		if a.PSNR > best.PSNR {
			best = a
		}
	}
	return Advice{}, fmt.Errorf("core: no candidate reaches %.1f dB; best was %s at eb=%g with %.1f dB",
		acfg.MinPSNR, best.Codec, best.RelEB, best.PSNR)
}

// CoreSample is one point of the multi-core extension study: energy and
// runtime of a compression job at a given worker count.
type CoreSample = advisor.WorkerPoint

// EnergyVsCores evaluates a compression job across worker counts at the
// tuned frequency — the "energy-optimal parallelism" question the
// container package's parallel packer raises. Static package power
// amortizes over shorter runs, so more cores usually save energy until
// the serial fraction dominates. The pricing is the controller's worker
// axis (advisor.WorkerEnergies); this wrapper pins the paper's reference
// workload (rel 1e-3, ratio 9) at the Eqn 3 compression frequency.
func EnergyVsCores(cfg Config, chipName, codec string, totalBytes int64, maxCores int) ([]CoreSample, error) {
	return advisor.WorkerEnergies(chipName, codec, totalBytes, 1e-3, 9, 0, maxCores)
}
