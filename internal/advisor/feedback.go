package advisor

import (
	"fmt"
	"math"
	"sync"
)

// defaultAlpha is the EWMA gain: with a stable workload each observation
// halves the remaining log-space error.
const defaultAlpha = 0.5

func ratioKey(codec string, relEB float64) string {
	return fmt.Sprintf("%s|%d", codec, int(math.Round(math.Log10(relEB))))
}

func finitePos(x float64) bool { return x > 0 && !math.IsInf(x, 0) }

// RatioTracker is a per-stream ratio smoother for callers (the svc daemon's
// per-tenant advice path) that observe measured ratios but never build
// sketches: a log-space EWMA per (codec, bound decade).
type RatioTracker struct {
	mu    sync.Mutex
	alpha float64
	log   map[string]float64 // key: codec|decade → log measured ratio
}

// NewRatioTracker builds a tracker with the default gain.
func NewRatioTracker() *RatioTracker {
	return &RatioTracker{alpha: defaultAlpha, log: make(map[string]float64)}
}

// Observe folds one measured ratio into the stream's estimate.
func (t *RatioTracker) Observe(codec string, relEB, measuredRatio float64) {
	if codec == "" || !finitePos(relEB) || !finitePos(measuredRatio) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := ratioKey(codec, relEB)
	if prev, ok := t.log[k]; ok {
		t.log[k] = prev + t.alpha*(math.Log(measuredRatio)-prev)
	} else {
		t.log[k] = math.Log(measuredRatio)
	}
}

// Estimate returns the smoothed ratio for a (codec, bound), or the fallback
// when the stream has no history there.
func (t *RatioTracker) Estimate(codec string, relEB, fallback float64) float64 {
	if !finitePos(relEB) {
		return fallback
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if lr, ok := t.log[ratioKey(codec, relEB)]; ok {
		return math.Exp(lr)
	}
	return fallback
}
