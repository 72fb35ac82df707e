package svc

import (
	"fmt"
	"math"

	"lcpio/internal/advisor"
	"lcpio/internal/compress"
	"lcpio/internal/wire"
)

// AdviseRequest asks the daemon, before any data exists client-side, which
// (codec, bound) it should dump with. The daemon never sees the field, so
// quality screening uses the calibrated data-independent PSNR estimate
// (advisor.TheoreticalPSNR) and pricing uses the tenant's own measured
// compression-ratio history (fed by every finalized session) with the
// server default as the prior.
type AdviseRequest struct {
	Tenant string
	// RawBytes is the uncompressed dump size to price.
	RawBytes int64
	// DeadlineSeconds bounds the projected dump wall time (0 = none).
	DeadlineSeconds float64
	// MinPSNR is the quality floor in dB (0 = none).
	MinPSNR float64
}

func (r AdviseRequest) encode() []byte {
	b := wire.AppendString(nil, r.Tenant)
	b = wire.AppendUint64(b, uint64(r.RawBytes))
	b = wire.AppendFloat64(b, r.DeadlineSeconds)
	b = wire.AppendFloat64(b, r.MinPSNR)
	return b
}

func parseAdviseRequest(b []byte) (AdviseRequest, error) {
	rd := wire.NewReader(b, ErrCorruptFrame)
	var r AdviseRequest
	if r.Tenant = rd.String(maxNameLen); r.Tenant == "" {
		return r, fmt.Errorf("%w: advise tenant", ErrCorruptFrame)
	}
	r.RawBytes = int64(rd.Uint64())
	r.DeadlineSeconds = rd.Float64()
	r.MinPSNR = rd.Float64()
	if rd.Err() != nil || rd.Remaining() != 0 {
		return r, fmt.Errorf("%w: advise request", ErrCorruptFrame)
	}
	if r.RawBytes <= 0 || r.RawBytes > maxRawB ||
		r.DeadlineSeconds < 0 || math.IsInf(r.DeadlineSeconds, 0) || math.IsNaN(r.DeadlineSeconds) ||
		r.MinPSNR < 0 || math.IsInf(r.MinPSNR, 0) || math.IsNaN(r.MinPSNR) {
		return r, fmt.Errorf("%w: advise bounds", ErrCorruptFrame)
	}
	return r, nil
}

// AdviseReply is the daemon's pick. When no candidate satisfies every
// constraint, Admissible is false and the reply carries the closest
// candidate plus the Reason it falls short — the client can loosen its
// floor or deadline and ask again.
type AdviseReply struct {
	Codec string
	RelEB float64
	// Ratio is the compression ratio the pick was priced at: the tenant's
	// smoothed measured history for this (codec, bound decade), or the
	// server default when the tenant has no history there.
	Ratio       float64
	ProjJoules  float64
	ProjSeconds float64
	Admissible  bool
	Reason      string
}

func (r AdviseReply) encode() []byte {
	b := wire.AppendString(nil, r.Codec)
	b = wire.AppendFloat64(b, r.RelEB)
	b = wire.AppendFloat64(b, r.Ratio)
	b = wire.AppendFloat64(b, r.ProjJoules)
	b = wire.AppendFloat64(b, r.ProjSeconds)
	flag := byte(0)
	if r.Admissible {
		flag = 1
	}
	b = append(b, flag)
	return wire.AppendString(b, r.Reason)
}

func parseAdviseReply(b []byte) (AdviseReply, error) {
	rd := wire.NewReader(b, ErrCorruptFrame)
	var r AdviseReply
	if r.Codec = rd.String(maxNameLen); r.Codec == "" {
		return r, fmt.Errorf("%w: advise codec", ErrCorruptFrame)
	}
	r.RelEB = rd.Float64()
	r.Ratio = rd.Float64()
	r.ProjJoules = rd.Float64()
	r.ProjSeconds = rd.Float64()
	flag := rd.Bytes(1)
	if rd.Err() != nil || flag[0] > 1 {
		return r, fmt.Errorf("%w: advise reply", ErrCorruptFrame)
	}
	r.Admissible = flag[0] == 1
	if r.Reason = rd.String(maxMetaLen); rd.Err() != nil || rd.Remaining() != 0 {
		return r, fmt.Errorf("%w: advise reason", ErrCorruptFrame)
	}
	if !(r.RelEB > 0) || r.RelEB > 1 || !(r.Ratio >= 1) || math.IsInf(r.Ratio, 0) {
		return r, fmt.Errorf("%w: advise pick", ErrCorruptFrame)
	}
	return r, nil
}

// adviseCodecs are the candidates the daemon sweeps; both have sketch
// calibration entries so TheoreticalPSNR can screen them blind.
var adviseCodecs = []string{"sz", "zfp"}

// advise sweeps (codec × paper bound) for the cheapest projected dump that
// clears the tenant's floor, deadline, and energy budget, priced with the
// same Eqn 2 admission machinery a real open would face. Each candidate's
// ratio comes from the tenant's measured history (RatioTracker, fed by
// closeSession) so repeated dumps sharpen the advice.
func (s *Server) advise(req AdviseRequest) (AdviseReply, error) {
	s.mu.Lock()
	ten := s.tenants[req.Tenant]
	s.mu.Unlock()
	if ten == nil {
		return AdviseReply{}, fmt.Errorf("svc: tenant %q not registered", req.Tenant)
	}
	budget := ten.cfg.EnergyBudgetJoules

	var pick, fallback AdviseReply
	havePick, haveFallback := false, false
	bestPSNR := math.Inf(-1)
	var bestPSNRCand AdviseReply
	for _, codec := range adviseCodecs {
		for _, eb := range compress.PaperErrorBounds {
			psnr, err := advisor.TheoreticalPSNR(codec, eb)
			if err != nil {
				return AdviseReply{}, err
			}
			ratio := ten.ratios.Estimate(codec, eb, s.cfg.DefaultRatio)
			if !(ratio >= 1) {
				ratio = 1 // incompressible history: price a raw-size dump
			}
			projJ, projSec, err := s.priceRaw(codec, eb, req.RawBytes, 0, ratio)
			if err != nil {
				return AdviseReply{}, err
			}
			cand := AdviseReply{
				Codec: codec, RelEB: eb, Ratio: ratio,
				ProjJoules: projJ, ProjSeconds: projSec,
			}
			if psnr > bestPSNR {
				bestPSNR, bestPSNRCand = psnr, cand
			}
			if req.MinPSNR > 0 && psnr < req.MinPSNR {
				continue
			}
			// Quality clears; track the cheapest such candidate as the
			// fallback reply even if deadline/budget sink it.
			if !haveFallback || cand.ProjJoules < fallback.ProjJoules {
				fallback, haveFallback = cand, true
			}
			if req.DeadlineSeconds > 0 && projSec > req.DeadlineSeconds {
				continue
			}
			if budget > 0 && projJ > budget {
				continue
			}
			if !havePick || cand.ProjJoules < pick.ProjJoules {
				pick, havePick = cand, true
			}
		}
	}
	switch {
	case havePick:
		pick.Admissible = true
		return pick, nil
	case haveFallback:
		switch {
		case req.DeadlineSeconds > 0 && fallback.ProjSeconds > req.DeadlineSeconds:
			fallback.Reason = fmt.Sprintf("projected %.3f s misses deadline %.3f s",
				fallback.ProjSeconds, req.DeadlineSeconds)
		default:
			fallback.Reason = fmt.Sprintf("projected %.1f J exceeds budget %.1f J",
				fallback.ProjJoules, budget)
		}
		return fallback, nil
	default:
		bestPSNRCand.Reason = fmt.Sprintf(
			"no codec/bound reaches the %.1f dB floor; best is %s at eb=%g with %.1f dB",
			req.MinPSNR, bestPSNRCand.Codec, bestPSNRCand.RelEB, bestPSNR)
		return bestPSNRCand, nil
	}
}

// Advise asks the daemon for the cheapest admissible (codec, bound) for a
// dump of the given size under the tenant's budget and the request's floor
// and deadline. The reply is priced with the tenant's own measured ratio
// history, so advice sharpens as sessions finalize.
func (c *Client) Advise(req AdviseRequest) (AdviseReply, error) {
	if err := writeFrame(c.rw, frame{Type: frameAdvise, Payload: req.encode()}); err != nil {
		return AdviseReply{}, err
	}
	f, err := readFrame(c.rw)
	if err != nil {
		return AdviseReply{}, err
	}
	if f.Type == frameErr {
		return AdviseReply{}, fmt.Errorf("svc: advise failed: %s", f.Payload)
	}
	if f.Type != frameAdviseOK {
		return AdviseReply{}, fmt.Errorf("%w: unexpected reply to advise", ErrCorruptFrame)
	}
	return parseAdviseReply(f.Payload)
}
