package transit

import (
	"testing"

	"lcpio/internal/netsim"
)

func TestLorenzStepStaysOnAttractor(t *testing.T) {
	l := StandardLorenz()
	x, y, z := 1.0, 1.0, 20.0
	for i := 0; i < 10000; i++ {
		x, y, z = l.Step(x, y, z)
		if x < -30 || x > 30 || y < -40 || y > 40 || z < -5 || z > 60 {
			t.Fatalf("step %d left the attractor: (%g, %g, %g)", i, x, y, z)
		}
	}
}

func TestDivergenceHorizonIdenticalStatesNeverDiverge(t *testing.T) {
	ens := LorenzEnsemble(32, 1)
	if h := LorenzDivergenceHorizon(ens, ens, 1e-3, 500); h != 500 {
		t.Errorf("identical ensembles diverged at step %d", h)
	}
}

func TestDivergenceHorizonDeterministic(t *testing.T) {
	a := LorenzEnsemble(16, 7)
	b := LorenzEnsemble(16, 8)
	h1 := LorenzDivergenceHorizon(a, b, 1e-3, 1000)
	h2 := LorenzDivergenceHorizon(a, b, 1e-3, 1000)
	if h1 != h2 {
		t.Errorf("horizon not deterministic: %d vs %d", h1, h2)
	}
	if h1 <= 0 || h1 >= 1000 {
		t.Errorf("distinct ensembles: horizon %d outside (0, 1000)", h1)
	}
}

// TestLossyRoundTripDivergenceAcceptance is the chaotic-system acceptance
// gate of SNIPPETS §2: advance the Lorenz ensemble from the original state
// and from the lossy round-tripped state, and require (a) a tighter bound
// to buy a horizon at least as long, and (b) the tight bound's horizon to
// clear a usability floor.
func TestLossyRoundTripDivergenceAcceptance(t *testing.T) {
	orig := LorenzEnsemble(256, 42)
	const maxSteps = 4000
	horizon := func(relEB float64) int {
		_, recon, err := BreakEven(netsim.TenGbE(), "sz", relEB, orig, []int{256, 3})
		if err != nil {
			t.Fatalf("relEB %g: %v", relEB, err)
		}
		return LorenzDivergenceHorizon(orig, recon, 0.05, maxSteps)
	}
	loose := horizon(1e-2)
	tight := horizon(1e-5)
	if tight < loose {
		t.Errorf("tighter bound shortened the horizon: 1e-5 -> %d steps, 1e-2 -> %d steps", tight, loose)
	}
	if tight < 200 {
		t.Errorf("1e-5 horizon %d steps below the 200-step usability floor", tight)
	}
	if loose <= 0 {
		t.Errorf("loose-bound horizon %d; even 1e-2 should track briefly", loose)
	}
}

func TestLogisticDivergenceTighterBoundTracksLonger(t *testing.T) {
	orig := LogisticEnsemble(512, 3)
	horizon := func(relEB float64) int {
		_, recon, err := BreakEven(netsim.TenGbE(), "zfp", relEB, orig, []int{512})
		if err != nil {
			t.Fatalf("relEB %g: %v", relEB, err)
		}
		return LogisticDivergenceHorizon(orig, recon, 0.05, 200)
	}
	loose := horizon(1e-2)
	tight := horizon(1e-6)
	if tight <= loose {
		t.Errorf("logistic horizons not ordered: 1e-6 -> %d, 1e-2 -> %d", tight, loose)
	}
}

func TestDivergenceHorizonGuards(t *testing.T) {
	if h := DivergenceHorizon([]float64{1}, []float64{1, 2}, func([]float64) {}, 1, 0.1, 10); h != 0 {
		t.Errorf("length mismatch: %d", h)
	}
	if h := DivergenceHorizon(nil, nil, func([]float64) {}, 1, 0.1, 10); h != 0 {
		t.Errorf("empty: %d", h)
	}
	if h := DivergenceHorizon([]float64{1}, []float64{1}, func([]float64) {}, 0, 0.1, 10); h != 0 {
		t.Errorf("zero scale: %d", h)
	}
}
