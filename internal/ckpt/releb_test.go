package ckpt

import (
	"math"
	"math/rand"
	"testing"
)

// refMeanRelEB is the serial float64 scan meanRelEB replaced; the parallel
// float32 scan must return the same bits, since the value feeds every priced
// joule (TestPricingGolden pins the ordinary cases, this the odd ones).
func refMeanRelEB(set Set) float64 {
	var wsum, sum float64
	for _, f := range set.Fields {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, rank := range f.Data {
			for _, v := range rank {
				fv := float64(v)
				if fv < lo {
					lo = fv
				}
				if fv > hi {
					hi = fv
				}
			}
		}
		rng := hi - lo
		if !(rng > 0) {
			rng = 1
		}
		w := float64(len(f.Data)) * float64(len(f.Data[0]))
		wsum += w
		sum += w * f.ErrorBound / rng
	}
	if wsum == 0 {
		return 1e-3
	}
	return sum / wsum
}

func TestMeanRelEBMatchesSerialScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	random := func(n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = float32(rng.NormFloat64() * 1e3)
		}
		return out
	}
	withAt := func(src []float32, i int, v float32) []float32 {
		out := append([]float32(nil), src...)
		out[i] = v
		return out
	}
	base := random(1000)
	fields := map[string][][]float32{
		"random ranks":      {random(1000), random(1000), random(1000), random(1000), random(1000)},
		"extrema in ranks":  {base, withAt(base, 7, 9e9), withAt(base, 900, -9e9)},
		"nan first":         {withAt(base, 0, nan), base},
		"nan everywhere":    {{nan, nan, nan}, {nan, nan, nan}},
		"infinities":        {withAt(base, 3, inf), withAt(base, 4, -inf)},
		"constant":          {{5, 5, 5}, {5, 5, 5}},
		"signed zeros":      {{0, negZero, 0}, {negZero, negZero, 0}},
		"zero and negative": {{negZero, -1, -2}, {0, -3, -1}},
		"subnormal range":   {{1e-45, 0, 2e-45}},
	}
	for name, data := range fields {
		set := Set{Fields: []Field{
			{ErrorBound: 1e-3, Data: data},
			{ErrorBound: 0.25, Data: [][]float32{random(64), random(64)}},
		}}
		got, want := meanRelEB(set), refMeanRelEB(set)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: meanRelEB = %v (%#x), serial float64 scan %v (%#x)",
				name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if got := meanRelEB(Set{}); got != 1e-3 {
		t.Errorf("empty set: %v, want 1e-3", got)
	}
}
