// Package compress owns how a codec is configured and obtained: a codec is
// (name, workers), and NewHandle is the only way to get one. It also carries
// the quality metrics (compression ratio, maximum absolute error, PSNR) the
// experiment harness reports.
package compress

import (
	"fmt"
	"math"
	"sort"

	"lcpio/internal/squant"
	"lcpio/internal/sz"
	"lcpio/internal/zfp"
)

// Codec is an error-bounded lossy compressor for float32 arrays: the subset
// of Handle that Evaluate needs.
type Codec interface {
	// Name returns the registry name ("sz", "zfp" or "squant").
	Name() string
	// Compress encodes data (row-major, dims slowest first) so that every
	// reconstructed value differs from the original by at most eb.
	Compress(data []float32, dims []int, eb float64) ([]byte, error)
	// Decompress reverses Compress, returning data and dims.
	Decompress(buf []byte) ([]float32, []int, error)
}

// Handle is a codec. sz and zfp handles reuse all scratch across calls, so a
// warm call allocates a small constant, and refuse a hostile stream from its
// header; squant, the flat baseline, allocates per call and inflates a stream
// before checking it. Both precisions run end to end, so float64 bounds below
// float32 resolution hold. NOT safe for concurrent use: one per goroutine.
type Handle interface {
	Codec
	// CompressAppend appends the stream to dst, avoiding the output
	// allocation too when dst has capacity.
	CompressAppend(dst []byte, data []float32, dims []int, eb float64) ([]byte, error)
	// DecompressInto is Decompress landing in dst's backing array: when
	// cap(dst) holds the stream's element count the returned slice aliases
	// dst and the output allocation is avoided too; otherwise it allocates
	// as Decompress does. Every element of the returned slice is written,
	// or an error is returned — dst's old contents never show through.
	DecompressInto(dst []float32, buf []byte) ([]float32, []int, error)
	Compress64(data []float64, dims []int, eb float64) ([]byte, error)
	CompressAppend64(dst []byte, data []float64, dims []int, eb float64) ([]byte, error)
	Decompress64(buf []byte) ([]float64, []int, error)
	DecompressInto64(dst []float64, buf []byte) ([]float64, []int, error)
}

// codecs is the one table on the codec name, keyed by the names the paper
// uses. The codec types satisfy Handle directly.
var codecs = map[string]func(workers int) Handle{
	"sz":     func(workers int) Handle { return sz.NewHandle(workers) },
	"zfp":    func(workers int) Handle { return zfp.NewHandle(workers) },
	"squant": func(int) Handle { return squant.Handle{} }, // flat quantizer, no parallel path
}

// NewHandle returns the named codec with the given intra-codec worker count
// (0 = all cores). The worker count is a codec's only setting and affects
// execution only, never the compressed bytes.
func NewHandle(name string, workers int) (Handle, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	return codecs[name](workers), nil
}

// CheckName reports whether NewHandle knows the codec, without building one.
func CheckName(name string) error {
	if _, ok := codecs[name]; !ok {
		return fmt.Errorf("compress: unknown codec %q (have %v)", name, Names())
	}
	return nil
}

// Names lists the registered codec names in sorted order.
func Names() []string {
	out := make([]string, 0, len(codecs))
	for n := range codecs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Result summarizes one compression run for reporting.
type Result struct {
	Codec           string
	ErrorBound      float64
	RawBytes        int64
	CompressedBytes int64
	MaxAbsError     float64
	PSNR            float64 // dB, against the data range
}

// Ratio returns raw/compressed.
func (r Result) Ratio() float64 {
	if r.CompressedBytes == 0 {
		return 0
	}
	return float64(r.RawBytes) / float64(r.CompressedBytes)
}

// BitRate returns compressed bits per value (raw values are 32-bit).
func (r Result) BitRate() float64 {
	if r.RawBytes == 0 {
		return 0
	}
	return 32 * float64(r.CompressedBytes) / float64(r.RawBytes)
}

// Evaluate compresses, decompresses and scores a codec on one array.
func Evaluate(c Codec, data []float32, dims []int, eb float64) (Result, error) {
	buf, err := c.Compress(data, dims, eb)
	if err != nil {
		return Result{}, err
	}
	out, _, err := c.Decompress(buf)
	if err != nil {
		return Result{}, fmt.Errorf("compress: %s round trip: %w", c.Name(), err)
	}
	if len(out) != len(data) {
		return Result{}, fmt.Errorf("compress: %s returned %d values, want %d", c.Name(), len(out), len(data))
	}
	return Result{
		Codec:           c.Name(),
		ErrorBound:      eb,
		RawBytes:        int64(len(data)) * 4,
		CompressedBytes: int64(len(buf)),
		MaxAbsError:     MaxAbsError(data, out),
		PSNR:            PSNR(data, out),
	}, nil
}

// MaxAbsError returns max_i |a[i]-b[i]|. NaN pairs (both NaN) count as zero
// error; a NaN mismatch is +Inf.
func MaxAbsError(a, b []float32) float64 {
	m := 0.0
	for i := range a {
		x, y := float64(a[i]), float64(b[i])
		if math.IsNaN(x) && math.IsNaN(y) {
			continue
		}
		d := math.Abs(x - y)
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		if d > m {
			m = d
		}
	}
	return m
}

// PSNR computes peak signal-to-noise ratio in dB with the data range as
// peak, the standard lossy-compression quality metric.
func PSNR(orig, recon []float32) float64 {
	if len(orig) == 0 || len(orig) != len(recon) {
		return 0
	}
	lo, hi := float64(orig[0]), float64(orig[0])
	var mse float64
	for i := range orig {
		x := float64(orig[i])
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
		d := x - float64(recon[i])
		mse += d * d
	}
	mse /= float64(len(orig))
	if mse == 0 {
		return math.Inf(1)
	}
	rng := hi - lo
	if rng == 0 {
		return 0
	}
	return 20*math.Log10(rng) - 10*math.Log10(mse)
}

// AbsBoundFromRelative converts a range-relative bound (the 1e-1..1e-4
// knobs in the paper) into the absolute bound both codecs take.
// The range runs over finite values only — the codecs store non-finite
// values verbatim, so they must not widen (or poison) the bound — and an
// empty, constant or all-non-finite array falls back to a range of 1.
func AbsBoundFromRelative(rel float64, data []float32) float64 {
	lo, hi := float32(math.Inf(1)), float32(math.Inf(-1))
	for _, v := range data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			continue
		}
		lo, hi = min(lo, v), max(hi, v)
	}
	r := float64(hi - lo) // float32 subtraction, as the bounds in every recorded study
	if !(r > 0) {
		r = 1
	}
	return rel * r
}

// PaperErrorBounds are the four bounds the paper sweeps (Section III-A).
var PaperErrorBounds = []float64{1e-1, 1e-2, 1e-3, 1e-4}
