package advisor

import (
	"encoding/binary"
	"math"
	"testing"

	"lcpio/internal/compress"
)

// FuzzSketch drives the sketch builder and the predictors with hostile
// inputs: NaN/Inf-laced fields, dims that are negative, zero, mismatched or
// overflow-prone, degenerate (zero-range, single-element) data, and sketch
// configs trying to force huge allocations. Contract: never a panic, never
// an allocation beyond the documented caps (dims are validated before any
// allocation), and on a successful sketch every calibrated (codec, bound)
// prediction is sane: ratio in [1, maxPredictedRatio], non-negative bit
// rate, PSNR finite or +Inf, ULP non-negative.
func FuzzSketch(f *testing.F) {
	nan := math.Float32bits(float32(math.NaN()))
	inf := math.Float32bits(float32(math.Inf(1)))
	le := binary.LittleEndian

	flat := make([]byte, 64*4) // zero-range field
	ramp := make([]byte, 48*4)
	for i := 0; i < 48; i++ {
		le.PutUint32(ramp[i*4:], math.Float32bits(float32(i)*0.5))
	}
	hostile := make([]byte, 32*4)
	for i := 0; i < 32; i++ {
		switch i % 3 {
		case 0:
			le.PutUint32(hostile[i*4:], nan)
		case 1:
			le.PutUint32(hostile[i*4:], inf)
		default:
			le.PutUint32(hostile[i*4:], math.Float32bits(-1e30))
		}
	}

	f.Add(ramp, int64(48), int64(1), int64(1), 0, 0)
	f.Add(flat, int64(8), int64(8), int64(1), 4, 2)
	f.Add(hostile, int64(4), int64(8), int64(1), 16, 3)
	f.Add(ramp, int64(-48), int64(0), int64(1), -5, -5)        // negative/zero dims
	f.Add(ramp, int64(1<<40), int64(1<<40), int64(1), 1, 1)    // product overflow
	f.Add(ramp, int64(47), int64(1), int64(1), 1<<30, 1<<30)   // mismatch + huge caps
	f.Add([]byte{1, 2, 3}, int64(0), int64(0), int64(0), 1, 1) // sub-element payload
	f.Add([]byte{}, int64(4), int64(4), int64(4), 8192, 64)    // empty field

	f.Fuzz(func(t *testing.T, payload []byte, d0, d1, d2 int64, maxSamples, segLen int) {
		data := make([]float32, len(payload)/4)
		for i := range data {
			data[i] = math.Float32frombits(le.Uint32(payload[i*4:]))
		}
		cfg := SketchConfig{MaxSamples: maxSamples, SegmentLen: segLen}

		check := func(sk *Sketch, err error) {
			if err != nil {
				return
			}
			if sk.Sampled > len(data) || sk.Sampled < 0 {
				t.Fatalf("sampled %d outside [0, %d]", sk.Sampled, len(data))
			}
			for _, codec := range []string{"sz", "zfp"} {
				for _, rel := range compress.PaperErrorBounds {
					pred, err := sk.Predict(codec, rel)
					if err != nil {
						continue
					}
					if !(pred.Ratio >= 1) || pred.Ratio > maxPredictedRatio {
						t.Fatalf("%s/%g: ratio %g outside [1, %g]", codec, rel, pred.Ratio, float64(maxPredictedRatio))
					}
					if !(pred.BitsPerValue >= 0) || math.IsInf(pred.BitsPerValue, 0) {
						t.Fatalf("%s/%g: bits/value %g", codec, rel, pred.BitsPerValue)
					}
					if math.IsNaN(pred.PSNR) || math.IsInf(pred.PSNR, -1) {
						t.Fatalf("%s/%g: PSNR %g", codec, rel, pred.PSNR)
					}
					if pred.MeanULP < 0 || math.IsNaN(pred.MeanULP) {
						t.Fatalf("%s/%g: mean ULP %g", codec, rel, pred.MeanULP)
					}
				}
				// Out-of-range bounds must error, not panic.
				if _, err := sk.Predict(codec, 0); err == nil {
					t.Fatalf("%s: Predict(0) accepted", codec)
				}
				if _, err := sk.Predict(codec, math.Inf(1)); err == nil {
					t.Fatalf("%s: Predict(+Inf) accepted", codec)
				}
			}
			if _, err := sk.Predict("no-such-codec", 1e-3); err == nil {
				t.Fatal("unknown codec accepted")
			}
		}

		// Fuzzer-chosen (usually hostile) dims, then a well-formed 1-D shape
		// for the same payload so the success path stays covered.
		sk, err := NewSketch(data, []int{int(d0), int(d1), int(d2)}, cfg)
		check(sk, err)
		if len(data) > 0 {
			sk, err = NewSketch(data, []int{len(data)}, cfg)
			check(sk, err)
		}
	})
}
