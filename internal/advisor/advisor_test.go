package advisor

import (
	"math"
	"strings"
	"testing"
	"time"

	"lcpio/internal/fpdata"
)

// holdoutElems sizes the held-out validation fields. Small enough that the
// exhaustive sweep (8 full Evaluates per field) stays fast, large enough
// that measured ratios are stable.
const holdoutElems = 1 << 17

func holdoutField(t *testing.T, spec fpdata.Spec) *fpdata.Field {
	t.Helper()
	return fpdata.Generate(spec, spec.ScaleFor(holdoutElems), 42)
}

// TestAdvisorRegretGate is the Figure 5 style acceptance gate: on every
// held-out Hurricane-ISABEL recipe, at every quality floor, the sketch-driven
// pick must cost within 5% modeled energy of the exhaustive
// (codec × bound × workers × frequency) sweep optimum, and the pick must be
// feasible under the MEASURED quality, not just the predicted one.
func TestAdvisorRegretGate(t *testing.T) {
	const maxRegret = 0.05
	for _, floor := range []float64{0, 40, 60, 75} {
		for _, spec := range fpdata.IsabelFields() {
			f := holdoutField(t, spec)
			c, err := New(Config{})
			if err != nil {
				t.Fatal(err)
			}
			sk, err := c.Sketch(f.Data, f.Dims)
			if err != nil {
				t.Fatal(err)
			}
			req := Request{MinPSNR: floor}
			dec, err := c.Decide(sk, req)
			if err != nil {
				t.Fatalf("floor %g %s: %v", floor, spec.Field, err)
			}
			truth, err := c.ExhaustiveSweep(f.Data, f.Dims, req)
			if err != nil {
				t.Fatal(err)
			}
			regret, err := c.Regret(dec, truth)
			if err != nil {
				t.Fatal(err)
			}
			if regret > maxRegret {
				t.Errorf("floor %g %s: pick %s/%g regret %.1f%% > %.0f%%",
					floor, spec.Field, dec.Codec, dec.RelEB, 100*regret, 100*maxRegret)
			}
			// The pick must hold up under measured quality.
			for _, e := range truth.Table {
				if e.Codec == dec.Codec && e.RelEB == dec.RelEB {
					if !e.Feasible {
						t.Errorf("floor %g %s: pick %s/%g measured-infeasible: %s",
							floor, spec.Field, dec.Codec, dec.RelEB, e.Reason)
					}
					if floor > 0 && e.Pred.PSNR < floor && !math.IsInf(e.Pred.PSNR, 1) {
						t.Errorf("floor %g %s: pick measured %.1f dB below floor",
							floor, spec.Field, e.Pred.PSNR)
					}
				}
			}
		}
	}
}

// TestSketchCheaperThanEvaluate pins the whole point of the sketch: deciding
// from a sketch must be at least 10x cheaper than the same search fed by a
// full-field compress.Evaluate per cell.
func TestSketchCheaperThanEvaluate(t *testing.T) {
	spec := fpdata.IsabelFields()[0]
	f := fpdata.Generate(spec, spec.ScaleFor(1<<18), 42)
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sketched := func() {
		sk, err := c.Sketch(f.Data, f.Dims)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Decide(sk, Request{}); err != nil {
			t.Fatal(err)
		}
	}
	measured := func() {
		if _, err := c.ExhaustiveSweep(f.Data, f.Dims, Request{}); err != nil {
			t.Fatal(err)
		}
	}
	best := func(fn func()) float64 {
		min := math.Inf(1)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			fn()
			if d := time.Since(t0).Seconds(); d < min {
				min = d
			}
		}
		return min
	}
	sketched() // warm up allocator and codec tables before timing
	sketchSec, fullSec := best(sketched), best(measured)
	if fullSec < 10*sketchSec {
		t.Fatalf("sketched search %.4fs vs measured search %.4fs: less than 10x cheaper", sketchSec, fullSec)
	}
	t.Logf("sketched search %.2fms, measured search %.0fms (%.0fx)", 1e3*sketchSec, 1e3*fullSec, fullSec/sketchSec)
}

// TestDecideNoFeasibleNamesBestCandidate pins the satellite fix: the
// no-candidate error must name the codec and bound with the best quality.
func TestDecideNoFeasibleNamesBestCandidate(t *testing.T) {
	spec := fpdata.IsabelFields()[0]
	f := holdoutField(t, spec)
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := c.Sketch(f.Data, f.Dims)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Decide(sk, Request{MinPSNR: 500})
	if err == nil {
		t.Fatal("expected no-feasible error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "eb=") || !(strings.Contains(msg, "sz") || strings.Contains(msg, "zfp")) {
		t.Fatalf("error does not name the best codec/bound: %q", msg)
	}
}

// TestDecideDeadline checks the deadline axis: an impossible deadline is an
// error; a loose one relaxes back to the unconstrained optimum; a binding
// one forces a faster (more energy) configuration.
func TestDecideDeadline(t *testing.T) {
	spec := fpdata.IsabelFields()[2]
	f := holdoutField(t, spec)
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := c.Sketch(f.Data, f.Dims)
	if err != nil {
		t.Fatal(err)
	}
	free, err := c.Decide(sk, Request{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decide(sk, Request{DeadlineSeconds: free.Seconds / 1e6}); err == nil {
		t.Fatal("expected error for impossible deadline")
	}
	// Bisect for the tightest feasible deadline: the decision there must
	// meet it by trading energy for speed, never undercut the free optimum.
	lo, hi := free.Seconds/1e3, free.Seconds
	for i := 0; i < 30; i++ {
		mid := (lo + hi) / 2
		if _, err := c.Decide(sk, Request{DeadlineSeconds: mid}); err != nil {
			lo = mid
		} else {
			hi = mid
		}
	}
	if hi >= free.Seconds {
		t.Fatal("no latency headroom below the unconstrained optimum")
	}
	tight, err := c.Decide(sk, Request{DeadlineSeconds: hi})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Seconds > hi {
		t.Fatalf("deadline violated: %.6fs > %.6fs", tight.Seconds, hi)
	}
	if tight.EnergyJ < free.EnergyJ {
		t.Fatalf("binding deadline should not cost less energy: %.4f < %.4f", tight.EnergyJ, free.EnergyJ)
	}
}

// TestDecisionTable checks the table covers the full grid, is sorted by
// energy among feasible rows, and carries rejection reasons.
func TestDecisionTable(t *testing.T) {
	spec := fpdata.IsabelFields()[4]
	f := holdoutField(t, spec)
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := c.Sketch(f.Data, f.Dims)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decide(sk, Request{MinPSNR: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Table) != 8 {
		t.Fatalf("table has %d rows, want 8 (2 codecs x 4 bounds)", len(dec.Table))
	}
	sawInfeasible := false
	for i, cand := range dec.Table {
		if cand.Feasible {
			if sawInfeasible {
				t.Fatal("feasible row after infeasible row")
			}
			if i > 0 && dec.Table[i-1].Feasible && dec.Table[i-1].EnergyJ > cand.EnergyJ {
				t.Fatal("feasible rows not sorted by energy")
			}
		} else {
			sawInfeasible = true
			if cand.Reason == "" {
				t.Fatalf("infeasible row %s/%g has no reason", cand.Codec, cand.RelEB)
			}
		}
	}
	if !dec.Table[0].Feasible || dec.Table[0].Codec != dec.Codec || dec.Table[0].RelEB != dec.RelEB {
		t.Fatal("first table row is not the pick")
	}
}

// measuredNYX runs the measured search on a small NYX field.
func measuredNYX(t *testing.T, req Request) (Decision, error) {
	t.Helper()
	spec, err := fpdata.Lookup("NYX", "")
	if err != nil {
		t.Fatal(err)
	}
	f := fpdata.Generate(spec, spec.ScaleFor(1<<16), 1)
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c.ExhaustiveSweep(f.Data, f.Dims, req)
}

// TestMeasuredQualityMonotone: per codec, a finer bound measures a higher
// PSNR and costs more energy.
func TestMeasuredQualityMonotone(t *testing.T) {
	truth, err := measuredNYX(t, Request{})
	if err != nil {
		t.Fatal(err)
	}
	if len(truth.Table) != 8 {
		t.Fatalf("table has %d rows, want 8", len(truth.Table))
	}
	byCodec := map[string]map[float64]Candidate{}
	for _, c := range truth.Table {
		if !c.Feasible || c.EnergyJ <= 0 || c.Seconds <= 0 || c.Pred.Ratio < 1 {
			t.Fatalf("degenerate row: %+v", c)
		}
		if byCodec[c.Codec] == nil {
			byCodec[c.Codec] = map[float64]Candidate{}
		}
		byCodec[c.Codec][c.RelEB] = c
	}
	for codec, m := range byCodec {
		if m[1e-4].Pred.PSNR <= m[1e-1].Pred.PSNR {
			t.Errorf("%s: finer bound did not raise PSNR: %v vs %v", codec, m[1e-4].Pred.PSNR, m[1e-1].Pred.PSNR)
		}
		if m[1e-4].EnergyJ <= m[1e-1].EnergyJ {
			t.Errorf("%s: finer bound did not cost more energy", codec)
		}
	}
}

// TestMeasuredNoFeasibleNamesBestCandidate: an unreachable floor is an
// error naming the codec and bound that came closest.
func TestMeasuredNoFeasibleNamesBestCandidate(t *testing.T) {
	_, err := measuredNYX(t, Request{MinPSNR: 500})
	if err == nil {
		t.Fatal("unreachable PSNR floor accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "eb=") || !(strings.Contains(msg, "sz") || strings.Contains(msg, "zfp")) {
		t.Fatalf("error does not name the best codec/bound: %q", msg)
	}
}

func TestUnknownChipRefused(t *testing.T) {
	if _, err := New(Config{Chip: "EPYC"}); err == nil {
		t.Fatal("unknown chip accepted")
	}
}

// TestWorkerEnergies pins the parallelism axis shape: more cores, shorter
// runs; energy improves from 1 to 2 cores on the static-power amortization.
func TestWorkerEnergies(t *testing.T) {
	pts, err := WorkerEnergies("Broadwell", "sz", 1<<30, 1e-3, 9, 1.75, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("got %d points, want 8", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Seconds >= pts[i-1].Seconds {
			t.Fatalf("cores %d not faster than %d", pts[i].Cores, pts[i-1].Cores)
		}
	}
	if pts[1].Joules >= pts[0].Joules {
		t.Fatal("2 cores should amortize static power below 1 core")
	}
}
