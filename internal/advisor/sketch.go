// Package advisor closes the loop the paper leaves open: instead of
// hard-coding Eqn 3's two tuned frequencies and sweeping a fixed (codec,
// bound) grid offline, it decides the full per-dump configuration online.
// Wilkins et al. (arXiv 2410.23497) ask the question directly — should this
// dump be compressed at all, and how — and Silva et al. (arXiv 1805.00998)
// frame it as an energy-optimal-configuration search under a runtime
// deadline.
//
// The package is one search with two sources of (ratio, PSNR):
//
//   - a Sketch samples a dump's field cheaply (contiguous segments, so local
//     smoothness survives) and predicts ratio and quality per (codec, bound)
//     from Lorenzo-residual entropy — no full compress.Evaluate needed;
//   - a Controller searches (codec, error bound, worker count, DVFS
//     frequency pair) for the minimum modeled Eqn 2 energy subject to a
//     deadline and a quality floor: Decide feeds the search the sketch's
//     predictions hedged by 3 dB, ExhaustiveSweep feeds it a measured round
//     trip per cell, and Regret prices the gap between the two.
//
// WorkerEnergies is the worker axis alone, for the multi-core study.
package advisor

import (
	"fmt"
	"math"

	"lcpio/internal/compress"
	"lcpio/internal/wire"
)

// SketchConfig bounds the sample a Sketch takes. The zero value picks the
// defaults; out-of-range values are clamped, never grown, so a hostile
// config cannot force large allocations.
type SketchConfig struct {
	// MaxSamples is the total number of elements sampled (default 8192,
	// cap 1<<20). The sketch never allocates more than this many float64
	// slots per series regardless of field size.
	MaxSamples int
	// SegmentLen is the length of each contiguous sampled run (default 64,
	// cap 4096). Contiguous runs — rather than isolated strided points —
	// preserve the local smoothness the Lorenzo entropy estimate needs.
	SegmentLen int
}

const (
	defaultMaxSamples = 8192
	capMaxSamples     = 1 << 20
	defaultSegmentLen = 64
	capSegmentLen     = 4096

	// maxPredictedRatio clamps ratio predictions: constant fields compress
	// to framing, but the codecs' container overhead keeps real ratios
	// finite.
	maxPredictedRatio = 512.0

	// maxEntropyBins caps the residual histogram; past this many distinct
	// quantization bins the sample is effectively incompressible noise and
	// the entropy saturates at log2(samples) anyway.
	maxEntropyBins = 1 << 16
)

func (c SketchConfig) normalized() SketchConfig {
	if c.MaxSamples <= 0 {
		c.MaxSamples = defaultMaxSamples
	}
	if c.MaxSamples > capMaxSamples {
		c.MaxSamples = capMaxSamples
	}
	if c.SegmentLen <= 0 {
		c.SegmentLen = defaultSegmentLen
	}
	if c.SegmentLen > capSegmentLen {
		c.SegmentLen = capSegmentLen
	}
	if c.SegmentLen > c.MaxSamples {
		c.SegmentLen = c.MaxSamples
	}
	return c
}

// Sketch is a bounded-size statistical summary of one field: enough to
// predict compression ratio and reconstruction quality per (codec, bound)
// without running a codec over the full data.
type Sketch struct {
	// Elems and RawBytes describe the full field the sketch summarizes.
	Elems    int
	RawBytes int64
	// Sampled counts the finite values the sketch saw; NonFinite the
	// NaN/Inf values it skipped.
	Sampled   int
	NonFinite int
	// Min/Max/MeanAbs are over the finite sample.
	Min, Max, MeanAbs float64

	// residuals are signed first-order (1-D Lorenzo) differences between
	// adjacent finite samples within a segment, never across a row
	// boundary of the fastest-varying dimension.
	residuals []float64
	// values are the finite sampled values.
	values []float64
	// blockRanges are local dynamic ranges of sampled 4^d spatial blocks —
	// the exact geometry ZFP's block transform encodes — driving its
	// bit-plane count estimate.
	blockRanges []float64
}

// Range is the sampled dynamic range, the denominator of range-relative
// error bounds.
func (sk *Sketch) Range() float64 {
	if sk.Sampled == 0 {
		return 0
	}
	return sk.Max - sk.Min
}

// NewSketch samples data (laid out row-major with dims slowest-first, as the
// codecs expect) into a bounded summary. NaN/Inf values are counted and
// skipped; they break the residual chain but do not fail the sketch. The
// cost is O(MaxSamples), independent of the field size.
func NewSketch(data []float32, dims []int, cfg SketchConfig) (*Sketch, error) {
	cfg = cfg.normalized()
	n := len(data)
	if n == 0 {
		return nil, fmt.Errorf("advisor: empty field")
	}
	if len(dims) == 0 {
		dims = []int{n} // no shape given: 1-D
	}
	if err := wire.CheckDims("advisor", n, dims); err != nil {
		return nil, err
	}
	rowLen := dims[len(dims)-1]
	sk := &Sketch{
		Elems:    n,
		RawBytes: int64(n) * 4,
		Min:      math.Inf(1),
		Max:      math.Inf(-1),
	}

	segLen := cfg.SegmentLen
	nSeg := (cfg.MaxSamples + segLen - 1) / segLen
	small := nSeg*segLen >= n
	if small {
		// Small field: one pass over everything in disjoint contiguous
		// segments (the strided starts below would overlap and
		// double-count when n is not a segment multiple).
		nSeg = (n + segLen - 1) / segLen
	}
	sk.residuals = make([]float64, 0, cfg.MaxSamples)
	sk.values = make([]float64, 0, cfg.MaxSamples)

	var absSum float64
	for s := 0; s < nSeg && len(sk.values) < cfg.MaxSamples; s++ {
		start := int(int64(s) * int64(n) / int64(nSeg))
		if small {
			start = s * segLen
		}
		end := start + segLen
		if end > n {
			end = n
		}
		prev, prevOK := 0.0, false
		for p := start; p < end; p++ {
			if p%rowLen == 0 {
				prevOK = false // never difference across a row boundary
			}
			v := float64(data[p])
			if math.IsNaN(v) || math.IsInf(v, 0) {
				sk.NonFinite++
				prevOK = false
				continue
			}
			sk.values = append(sk.values, v)
			absSum += math.Abs(v)
			if v < sk.Min {
				sk.Min = v
			}
			if v > sk.Max {
				sk.Max = v
			}
			if prevOK {
				sk.residuals = append(sk.residuals, v-prev)
			}
			prev, prevOK = v, true
		}
	}
	sk.sampleBlocks(data, dims, cfg)
	sk.Sampled = len(sk.values)
	if sk.Sampled > 0 {
		sk.MeanAbs = absSum / float64(sk.Sampled)
	} else {
		sk.Min, sk.Max = 0, 0
	}
	return sk, nil
}

// sampleBlocks gathers strided 4^d spatial blocks (d = the rank zfp codes
// the shape at) and records each block's local dynamic range — the statistic
// ZFP's bit-plane budget follows. Tiny shapes simply yield no blocks; the
// ZFP predictor then falls back to the whole-sample range.
func (sk *Sketch) sampleBlocks(data []float32, dims []int, cfg SketchConfig) {
	rank, d0, d1, d2 := wire.Collapse(dims)
	eff := []int{d0, d1, d2}[3-rank:]
	const edge = 4
	// Block grid extents per effective dim.
	grid := make([]int, len(eff))
	blocks := int64(1)
	for i, d := range eff {
		grid[i] = d / edge
		if grid[i] == 0 {
			return // dimension too small for a full block
		}
		blocks *= int64(grid[i])
	}
	vol := 1
	for range eff {
		vol *= edge
	}
	want := cfg.MaxSamples / vol
	if want < 1 {
		want = 1
	}
	if int64(want) > blocks {
		want = int(blocks)
	}
	sk.blockRanges = make([]float64, 0, want)
	// Strides in the flattened array for the effective dims (row-major,
	// slowest first).
	stride := make([]int, len(eff))
	s := 1
	for i := len(eff) - 1; i >= 0; i-- {
		stride[i] = s
		s *= eff[i]
	}
	coord := make([]int, len(eff))
	for b := 0; b < want; b++ {
		bi := int64(b) * blocks / int64(want)
		// Unflatten bi over the block grid.
		for i := len(grid) - 1; i >= 0; i-- {
			coord[i] = int(bi%int64(grid[i])) * edge
			bi /= int64(grid[i])
		}
		origin := 0
		for i := range coord {
			origin += coord[i] * stride[i]
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		finite := 0
		var walk func(dim, off int)
		walk = func(dim, off int) {
			if dim == len(eff) {
				v := float64(data[off])
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return
				}
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
				finite++
				return
			}
			for e := 0; e < edge; e++ {
				walk(dim+1, off+e*stride[dim])
			}
		}
		walk(0, origin)
		if finite >= 2 {
			sk.blockRanges = append(sk.blockRanges, hi-lo)
		}
	}
}

// Prediction is the sketch's estimate for one (codec, bound) candidate.
type Prediction struct {
	Codec string
	RelEB float64
	// Ratio is the predicted compression ratio (raw/compressed).
	Ratio float64
	// BitsPerValue is the predicted encoded size, 32/Ratio.
	BitsPerValue float64
	// PSNR is the predicted reconstruction quality in dB (+Inf for
	// constant fields).
	PSNR float64
	// MeanULP is the predicted mean ULP error of the reconstruction
	// (stats.ULPError's Mean), derived from the bound and the sample's
	// mean magnitude.
	MeanULP float64
}

// codecCalib holds the per-codec constants that map sample statistics onto
// this repo's codec implementations. bitsScale/bitsBase translate sample
// entropy (or ZFP bit-plane count) into encoded bits per value;
// psnrOffsetDB is the constant in PSNR ≈ −20·log10(relEB) + offset from
// uniform-quantization noise (10·log10(3) ≈ 4.77 for an exact ±eb uniform
// error, higher for codecs that undershoot their bound); errFrac is the
// mean absolute reconstruction error as a fraction of the absolute bound.
// The values are calibrated against compress.Evaluate on the fpdata
// generators (see sketch_calib_test.go).
type codecCalib struct {
	bitsScale    float64
	bitsBase     float64
	psnrOffsetDB float64
	// psnrSlopeDB adds this many dB per decade of bound tightening below
	// 1e-2: codecs whose reconstruction error undershoots the bound
	// (ZFP's transform) pull further ahead of quantization theory as the
	// bound tightens.
	psnrSlopeDB float64
	errFrac     float64
}

var calib = map[string]codecCalib{
	// SZ: 3-D Lorenzo beats the sketch's 1-D residuals on smooth fields
	// (scale < 1) but pays Huffman table + container overhead (base).
	"sz": {bitsScale: 0.90, bitsBase: 0.6, psnrOffsetDB: 5.0, errFrac: 0.45},
	// ZFP: bits follow the 4^d-block bit-plane count; the transform
	// concentrates error well below the requested accuracy, increasingly
	// so at tighter bounds.
	"zfp": {bitsScale: 1.0, bitsBase: 1.9, psnrOffsetDB: 14.0, psnrSlopeDB: 4.0, errFrac: 0.2},
}

// psnrEstimate is the calibrated quality estimate: uniform-quantization
// noise against the range plus the codec's offset (and tightening slope).
func (c codecCalib) psnrEstimate(relEB float64) float64 {
	p := -20*math.Log10(relEB) + c.psnrOffsetDB
	if c.psnrSlopeDB != 0 && relEB < 1e-2 {
		p += c.psnrSlopeDB * math.Log10(1e-2/relEB)
	}
	return p
}

// Predict estimates ratio and quality for one (codec, bound) from the
// sketch alone. codec must be registered with internal/compress and have a
// calibration entry; relEB is range-relative in (0, ∞).
func (sk *Sketch) Predict(codec string, relEB float64) (Prediction, error) {
	cal, ok := calib[codec]
	if !ok {
		return Prediction{}, fmt.Errorf("advisor: unknown codec %q", codec)
	}
	if err := compress.CheckName(codec); err != nil {
		return Prediction{}, err
	}
	if !(relEB > 0) || math.IsInf(relEB, 0) {
		return Prediction{}, fmt.Errorf("advisor: invalid error bound %g", relEB)
	}
	if sk.Sampled == 0 {
		return Prediction{}, fmt.Errorf("advisor: sketch has no finite samples")
	}
	p := Prediction{Codec: codec, RelEB: relEB}
	rng := sk.Range()
	if rng <= 0 {
		// Constant field: compresses to framing, reconstructs exactly.
		p.Ratio = maxPredictedRatio
		p.BitsPerValue = 32 / p.Ratio
		p.PSNR = math.Inf(1)
		return p, nil
	}
	ebAbs := relEB * rng
	var bits float64
	switch codec {
	case "zfp":
		// Per-block bit planes: log2(block range / accuracy), zero when
		// the block is flat below the bound.
		ranges := sk.blockRanges
		if len(ranges) == 0 {
			ranges = []float64{rng}
		}
		var planes float64
		for _, r := range ranges {
			if r > ebAbs {
				planes += math.Log2(r / ebAbs)
			}
		}
		planes /= float64(len(ranges))
		bits = cal.bitsScale*planes + cal.bitsBase
	default:
		// Lorenzo-predictor residual entropy.
		series := sk.residuals
		if len(series) == 0 {
			series = sk.values
		}
		bits = cal.bitsScale*quantizedEntropy(series, ebAbs) + cal.bitsBase
	}
	if bits < 32/maxPredictedRatio {
		bits = 32 / maxPredictedRatio
	}
	if bits > 32 {
		bits = 32
	}
	p.BitsPerValue = bits
	p.Ratio = 32 / bits
	p.PSNR = cal.psnrEstimate(relEB)
	if sk.MeanAbs > 0 {
		// One ULP near magnitude m is ~m·2⁻²³ for float32; the mean
		// absolute reconstruction error is errFrac·ebAbs.
		p.MeanULP = cal.errFrac * ebAbs / (sk.MeanAbs * math.Exp2(-23))
	}
	return p, nil
}

// quantizedEntropy is the Shannon entropy (bits/symbol) of the series
// quantized into 2·ebAbs-wide bins — the symbol stream an error-bounded
// quantizer would hand its entropy coder.
func quantizedEntropy(series []float64, ebAbs float64) float64 {
	if len(series) == 0 || !(ebAbs > 0) {
		return 32
	}
	hist := make(map[int64]int, 256)
	inv := 1 / (2 * ebAbs)
	for _, v := range series {
		q := v * inv
		// Clamp instead of overflowing int64 on extreme outliers; the
		// clamped bins just become "unpredictable" symbols.
		if q > 1e15 {
			q = 1e15
		} else if q < -1e15 {
			q = -1e15
		}
		idx := int64(math.Round(q))
		if len(hist) >= maxEntropyBins {
			if _, ok := hist[idx]; !ok {
				// Saturated: the series is effectively incompressible at
				// this bound.
				return math.Log2(float64(len(series)))
			}
		}
		hist[idx]++
	}
	n := float64(len(series))
	var h float64
	for _, c := range hist {
		pr := float64(c) / n
		h -= pr * math.Log2(pr)
	}
	return h
}
