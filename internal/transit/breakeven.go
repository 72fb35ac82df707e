// Package transit answers the in-transit compression questions of
// SNIPPETS §2 (jpekkila, data compression for communication-bound HPC) for
// one payload on one link:
//
//  1. Overhead vs. saving — when does compressing a payload beat shipping
//     it raw? BreakEven runs the real codec round trip once, prices
//     compression and decompression through the phases pricer (Eqn 2 at the
//     Eqn 3 clocks) and the transfer with the netsim link model, and emits
//     the closed-form break-even link bandwidth and its energy counterpart.
//  2. Ratio vs. quality — what did the bytes saved cost? The same round
//     trip reports ULP error (stats.ULPError) and hands back the
//     reconstruction, from which the chaos steppers in this package measure
//     the divergence horizon of a chaotic system.
//
// The pipeline itself — compress, ship, check at the wire — runs for real in
// internal/svc (compressed-wire sessions); this package only prices the
// trade.
package transit

import (
	"fmt"

	"lcpio/internal/compress"
	"lcpio/internal/netsim"
	"lcpio/internal/phases"
	"lcpio/internal/stats"
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

	// Modeled at the Eqn 3 clocks on the reference node;
	// bandwidth-independent.
	CompressSeconds   float64
	DecompressSeconds float64
	CompressJoules    float64
	DecompressJoules  float64

	// ULP is the reconstruction's error against the payload.
	ULP stats.ULPStats

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

// BreakEven runs the real codec round trip on the payload once at the
// range-relative bound, prices both sides of the trade, and returns the
// economics with the receiver-side reconstruction.
func BreakEven(link netsim.Link, codec string, relEB float64, data []float32, dims []int) (Economics, []float32, error) {
	if link.BandwidthBps <= 0 {
		return Economics{}, nil, fmt.Errorf("transit: link %q has no bandwidth", link.Name)
	}
	if !(relEB > 0 && relEB < 1) {
		return Economics{}, nil, fmt.Errorf("transit: relative error bound %g outside (0, 1)", relEB)
	}
	h, err := compress.NewHandle(codec, 1)
	if err != nil {
		return Economics{}, nil, fmt.Errorf("transit: %w", err)
	}
	buf, err := h.Compress(data, dims, compress.AbsBoundFromRelative(relEB, data))
	if err != nil {
		return Economics{}, nil, fmt.Errorf("transit: compress: %w", err)
	}
	recon, _, err := h.Decompress(buf)
	if err != nil {
		return Economics{}, nil, fmt.Errorf("transit: decompress: %w", err)
	}
	ulp, err := stats.ULPError(data, recon)
	if err != nil {
		return Economics{}, nil, fmt.Errorf("transit: %w", err)
	}

	e := Economics{Codec: codec, RelEB: relEB, Link: link, ULP: ulp,
		RawBytes: int64(len(data)) * 4, CompressedBytes: int64(len(buf))}
	e.Ratio = float64(e.RawBytes) / float64(e.CompressedBytes)
	pr := phases.NewPricer(nil, phases.PaperRule())
	comp, err := pr.Compress(codec, e.RawBytes, relEB, e.Ratio)
	if err != nil {
		return Economics{}, nil, err
	}
	dec, err := pr.Decompress(codec, e.RawBytes, relEB, e.Ratio)
	if err != nil {
		return Economics{}, nil, err
	}
	t, err := pr.Price(comp, dec)
	if err != nil {
		return Economics{}, nil, err
	}
	e.CompressSeconds, e.CompressJoules = t.Legs[0].Seconds, t.Legs[0].Joules
	e.DecompressSeconds, e.DecompressJoules = t.Legs[1].Seconds, t.Legs[1].Joules
	e.BreakEvenBps = phases.WireBreakEven(link, e.RawBytes, e.CompressedBytes,
		e.CompressSeconds+e.DecompressSeconds)

	// The energy-parity bandwidth comes from the shared sign-change solver:
	// the wire energy is priced by the transit machine model (CPU
	// overlapping the link under a smooth maximum), so the difference is
	// monotone in B but has no closed form. saved(B) > 0 where compression
	// spends less energy than raw.
	computeJ := e.CompressJoules + e.DecompressJoules
	e.EnergyBreakEvenBps = phases.BreakEven(func(bps float64) float64 {
		wire := phases.Link(link.WithBandwidth(bps))
		// Move builds Writing-class stages, which Price cannot reject.
		t, _ := pr.Price(pr.Move(wire, e.RawBytes), pr.Move(wire, e.CompressedBytes))
		return t.Legs[0].Joules - (computeJ + t.Legs[1].Joules)
	}, 1e3, 1e16)
	return e, recon, nil
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

// SweepPoint is one row of a bandwidth sweep table.
type SweepPoint struct {
	BandwidthBps      float64
	CompressedSeconds float64
	RawSeconds        float64
	GoodputBps        float64 // raw payload bits over the compressed path time
	RawGoodputBps     float64
	CompressionWins   bool
}

// Sweep tabulates both paths at the given bandwidths — the CLI view of the
// trade.
func (e Economics) Sweep(bandwidths []float64) []SweepPoint {
	pts := make([]SweepPoint, 0, len(bandwidths))
	for _, b := range bandwidths {
		cs, rs := e.CompressedSeconds(b), e.RawSeconds(b)
		pt := SweepPoint{BandwidthBps: b, CompressedSeconds: cs, RawSeconds: rs, CompressionWins: cs < rs}
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
