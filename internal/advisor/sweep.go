package advisor

import (
	"fmt"
	"math"

	"lcpio/internal/compress"
)

// SweepEntry is one (codec, bound) point of the exhaustive sweep, with its
// measured ratio/quality and the best configuration found for it.
type SweepEntry struct {
	Codec    string
	RelEB    float64
	Ratio    float64 // measured, compress.Result
	PSNR     float64 // measured, dB
	Feasible bool
	Reason   string
	// Best configuration at the measured ratio (zero when infeasible).
	EnergyJ     float64
	Seconds     float64
	Workers     int
	CompressGHz float64
	WriteGHz    float64
}

// Sweep is the exhaustive (codec × bound × workers × frequency) ground
// truth the regret gate compares the sketch-driven pick against — the
// paper's Figure 5 methodology with the search axes added.
type Sweep struct {
	Entries []SweepEntry
	// Best indexes the minimum-energy feasible entry, -1 when none is.
	Best int
}

// ExhaustiveSweep runs the full compress.Evaluate grid on the actual field
// and optimizes each (codec, bound) with measured ratio and measured PSNR —
// no sketch, no margin. It is deliberately expensive; the controller's whole
// point is to approximate it from a sketch.
func (c *Controller) ExhaustiveSweep(data []float32, dims []int, req Request) (*Sweep, error) {
	raw := req.RawBytes
	if raw <= 0 {
		raw = int64(len(data)) * 4
	}
	if raw <= 0 {
		return nil, fmt.Errorf("advisor: sweep over empty field")
	}
	combos := axesCombos(req)
	sw := &Sweep{Best: -1}
	for _, codecName := range c.cfg.Codecs {
		codec, err := compress.NewHandle(codecName, 0)
		if err != nil {
			return nil, err
		}
		eCorr := c.model.energyCorrection(codecName)
		for _, rel := range c.cfg.Bounds {
			eb := compress.AbsBoundFromRelative(rel, data)
			res, err := compress.Evaluate(codec, data, dims, eb)
			if err != nil {
				return nil, fmt.Errorf("advisor: sweep %s/%g: %w", codecName, rel, err)
			}
			ratio := res.Ratio()
			if !(ratio >= 1) {
				ratio = 1
			}
			e := SweepEntry{Codec: codecName, RelEB: rel, Ratio: ratio, PSNR: res.PSNR}
			if req.MinPSNR > 0 && res.PSNR < req.MinPSNR && !math.IsInf(res.PSNR, 1) {
				e.Reason = fmt.Sprintf("measured %.1f dB below the %.1f dB floor", res.PSNR, req.MinPSNR)
				sw.Entries = append(sw.Entries, e)
				continue
			}
			best, err := c.bestOverAxes(codecName, rel, ratio, raw, combos, req)
			if err != nil {
				e.Reason = err.Error()
				sw.Entries = append(sw.Entries, e)
				continue
			}
			e.Feasible = true
			e.EnergyJ = best.total() * eCorr
			e.Seconds = best.seconds()
			e.Workers = best.workers
			e.CompressGHz = best.fComp
			e.WriteGHz = best.fWrite
			if sw.Best < 0 || e.EnergyJ < sw.Entries[sw.Best].EnergyJ {
				sw.Best = len(sw.Entries)
			}
			sw.Entries = append(sw.Entries, e)
		}
	}
	return sw, nil
}

// Regret re-prices the decision's exact configuration (codec, bound,
// workers, frequency pair, axes) at the sweep's measured ratio and returns
// E_pick/E_opt − 1 against the sweep optimum. The sweep optimizes the
// pick's own (codec, bound) too, so regret is never negative.
func (c *Controller) Regret(dec Decision, sw *Sweep) (float64, error) {
	if sw == nil || sw.Best < 0 || sw.Best >= len(sw.Entries) {
		return 0, fmt.Errorf("advisor: sweep has no feasible optimum")
	}
	var entry *SweepEntry
	for i := range sw.Entries {
		if sw.Entries[i].Codec == dec.Codec && sw.Entries[i].RelEB == dec.RelEB {
			entry = &sw.Entries[i]
			break
		}
	}
	if entry == nil {
		return 0, fmt.Errorf("advisor: sweep has no entry for pick %s/%g", dec.Codec, dec.RelEB)
	}
	ax := axes{delta: dec.Delta, wire: dec.WireCompress, parity: dec.ParityRanks}
	pc, err := c.price(dec.Codec, dec.RelEB, entry.Ratio, dec.raw, ax, dec.req,
		[]int{dec.Workers}, []float64{dec.CompressGHz}, []float64{dec.WriteGHz})
	if err != nil {
		// The pinned configuration misses the deadline at the measured
		// ratio: infinite regret, not an error.
		return math.Inf(1), nil
	}
	pick := pc.total() * c.model.energyCorrection(dec.Codec)
	best := sw.Entries[sw.Best].EnergyJ
	if !(best > 0) {
		return 0, fmt.Errorf("advisor: sweep optimum has non-positive energy %g", best)
	}
	r := pick/best - 1
	if r < 0 {
		r = 0
	}
	return r, nil
}
