package core

import "lcpio/internal/advisor"

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
