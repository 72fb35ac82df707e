package advisor

import (
	"fmt"
	"math"

	"lcpio/internal/phases"
)

// Campaign materializes a decision as an executable phases.Plan: n
// iterations of (compute, compress, write) with the decision's worker count
// and frequency pair pinned on the phases (so the plan is executed as built;
// ApplyRule would overwrite the pins). The write leg carries the
// payload plus any parity premium; a delta decision compresses only the
// churned fraction (the hash pass is folded into the compress leg's
// workload so the three-phase shape holds). Executing the plan attributes
// exact joules to obs spans, which is how campaign energy reconciles
// against the decision's model.
func (c *Controller) Campaign(dec Decision, n int, computeSec float64) (phases.Plan, error) {
	if dec.raw <= 0 {
		return phases.Plan{}, fmt.Errorf("advisor: decision was not produced by Decide")
	}
	pr, req := c.pr, dec.req
	ranks := max(req.Ranks, 1)
	compBytes := dec.raw
	if dec.Delta {
		compBytes = max(int64(math.Ceil(float64(dec.raw)*req.ChurnRate)), 1)
	}
	ratio := dec.Predicted.Ratio
	payload := max(int64(math.Ceil(float64(compBytes)/ratio)), 1)
	if dec.ParityRanks > 0 {
		// The parity premium rides the same write path at the same clock;
		// folding it into the write bytes keeps the campaign three-phase.
		payload += int64(math.Ceil(float64(payload) * float64(dec.ParityRanks) / float64(ranks)))
	}

	comp, err := pr.Compress(dec.Codec, compBytes, dec.RelEB, ratio)
	if err != nil {
		return phases.Plan{}, err
	}
	comp = comp.WithCores(dec.Workers)
	if dec.Delta {
		hash, err := pr.Dedup(dec.raw)
		if err != nil {
			return phases.Plan{}, err
		}
		comp.Workload.CPUCycles += hash.Workload.CPUCycles
		comp.Workload.StallSeconds += hash.Workload.StallSeconds
		comp.Workload.MemBytes += hash.Workload.MemBytes
	}
	to, _ := c.sinks(req)
	if req.WireLink != nil && !dec.WireCompress {
		payload = compBytes // raw over the wire
	}
	return phases.Campaign(n, computeSec,
		comp.Named("advisor-compress").At(dec.CompressGHz),
		pr.Move(to, payload).Named("advisor-write").At(dec.WriteGHz)), nil
}
