package transit

import (
	"fmt"
	"math"

	"lcpio/internal/netsim"
	"lcpio/internal/phases"
)

// Economics is the break-even answer for one codec/bound on one payload:
// below BreakEvenBps compressing the message is faster than shipping it
// raw; below EnergyBreakEvenBps it also costs less energy. Symmetric to
// the break-even churn (dedup) and break-even loss probability (parity)
// reports in internal/ckpt.
type Economics struct {
	Codec string
	RelEB float64
	// Link carries the framing and latency the answer assumes; its
	// BandwidthBps is the swept axis, not part of the answer.
	Link netsim.Link

	RawBytes        int64
	CompressedBytes int64
	Ratio           float64

	// Modeled at the channel's tuned clocks; bandwidth-independent.
	CompressSeconds   float64
	DecompressSeconds float64
	CompressJoules    float64
	DecompressJoules  float64

	// BreakEvenBps is the closed-form time-parity bandwidth: compressing
	// wins on links slower than this. 0 means the payload did not shrink
	// (compression never wins); +Inf means compute is free at this model's
	// resolution (compression always wins).
	BreakEvenBps float64
	// EnergyBreakEvenBps is the energy-parity bandwidth, found by bisection
	// (the transit energy model overlaps CPU and wire non-linearly, so
	// there is no closed form). Same 0/+Inf conventions.
	EnergyBreakEvenBps float64
}

// BreakEven runs the real codec on the payload once and prices both sides
// of the trade, emitting the per-codec/bound break-even bandwidths.
func (c *Channel) BreakEven(p Payload) (Economics, error) {
	if c.lanes == nil {
		return Economics{}, fmt.Errorf("transit: break-even needs a lossy codec, channel is %s", CodecRaw)
	}
	m, err := c.Send(p)
	if err != nil {
		return Economics{}, err
	}
	e := Economics{
		Codec:             c.cfg.Codec,
		RelEB:             c.cfg.RelEB,
		Link:              c.cfg.Link,
		RawBytes:          m.RawBytes,
		CompressedBytes:   m.WireBytes,
		Ratio:             m.Ratio,
		CompressSeconds:   m.CompressSeconds,
		DecompressSeconds: m.DecompressSeconds,
		CompressJoules:    m.CompressJoules,
		DecompressJoules:  m.DecompressJoules,
	}
	e.BreakEvenBps = phases.WireBreakEven(e.Link, e.RawBytes, e.CompressedBytes,
		e.CompressSeconds+e.DecompressSeconds)
	e.EnergyBreakEvenBps = c.energyBreakEven(e)
	return e, nil
}

// CompressedSeconds is the end-to-end time of the compressed path on the
// link clocked at bps.
func (e Economics) CompressedSeconds(bps float64) float64 {
	return e.CompressSeconds + e.Link.WithBandwidth(bps).MessageTime(e.CompressedBytes) +
		e.DecompressSeconds
}

// RawSeconds is the end-to-end time of the raw path at bps.
func (e Economics) RawSeconds(bps float64) float64 {
	return e.Link.WithBandwidth(bps).MessageTime(e.RawBytes)
}

// TimeSavedSeconds is positive where compressing wins at bps.
func (e Economics) TimeSavedSeconds(bps float64) float64 {
	return e.RawSeconds(bps) - e.CompressedSeconds(bps)
}

// SweepBreakEven finds the time-parity bandwidth without the closed form:
// an exhaustive geometric sweep over [loBps, hiBps] brackets the sign
// change of TimeSavedSeconds, then bisection refines the bracket. It must
// agree with phases.WireBreakEven within a fraction of a percent — the acceptance
// check for the closed form. Returns 0 if compression loses everywhere on
// the range and +Inf if it wins everywhere.
func (e Economics) SweepBreakEven(loBps, hiBps float64, steps int) float64 {
	if steps < 2 {
		steps = 2
	}
	if !(loBps > 0) || !(hiBps > loBps) {
		return 0
	}
	ratio := math.Pow(hiBps/loBps, 1/float64(steps-1))
	if e.TimeSavedSeconds(loBps) <= 0 {
		return 0 // losing even on the slowest link in range
	}
	prevB := loBps
	for i := 1; i < steps; i++ {
		b := loBps * math.Pow(ratio, float64(i))
		if e.TimeSavedSeconds(b) <= 0 {
			return phases.BreakEven(e.TimeSavedSeconds, prevB, b)
		}
		prevB = b
	}
	return math.Inf(1) // still winning on the fastest link in range
}

// SweepPoint is one row of a bandwidth sweep table.
type SweepPoint struct {
	BandwidthBps      float64
	CompressedSeconds float64
	RawSeconds        float64
	GoodputBps        float64 // raw payload bits over the compressed path time
	RawGoodputBps     float64
	CompressionWins   bool
}

// Sweep tabulates both paths at the given bandwidths — the CLI/bench view
// of the trade.
func (e Economics) Sweep(bandwidths []float64) []SweepPoint {
	pts := make([]SweepPoint, 0, len(bandwidths))
	for _, b := range bandwidths {
		cs := e.CompressedSeconds(b)
		rs := e.RawSeconds(b)
		pt := SweepPoint{
			BandwidthBps:      b,
			CompressedSeconds: cs,
			RawSeconds:        rs,
			CompressionWins:   cs < rs,
		}
		if cs > 0 {
			pt.GoodputBps = float64(e.RawBytes) * 8 / cs
		}
		if rs > 0 {
			pt.RawGoodputBps = float64(e.RawBytes) * 8 / rs
		}
		pts = append(pts, pt)
	}
	return pts
}

// energyBreakEven finds the energy-parity bandwidth with the shared
// sign-change solver. The wire energy is priced by the transit machine model
// (CPU overlapping the link under a smooth maximum), so the difference is
// monotone in B but has no closed form.
func (c *Channel) energyBreakEven(e Economics) float64 {
	computeJ := e.CompressJoules + e.DecompressJoules
	// saved(B) > 0 where compression spends less energy than raw.
	saved := func(bps float64) float64 {
		wire := phases.Link(c.cfg.Link.WithBandwidth(bps))
		// Move builds Writing-class stages, which Price cannot reject.
		t, _ := c.pr.Price(c.pr.Move(wire, e.RawBytes), c.pr.Move(wire, e.CompressedBytes))
		return t.Legs[0].Joules - (computeJ + t.Legs[1].Joules)
	}
	return phases.BreakEven(saved, 1e3, 1e16)
}
