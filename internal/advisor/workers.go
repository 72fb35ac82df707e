package advisor

import (
	"lcpio/internal/dvfs"
	"lcpio/internal/phases"
)

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
// study (`lcpio cores`).
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
