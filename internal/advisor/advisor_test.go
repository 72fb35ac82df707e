package advisor

import (
	"math"
	"strings"
	"testing"
	"time"

	"lcpio/internal/compress"
	"lcpio/internal/fpdata"
	"lcpio/internal/netsim"
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
			sw, err := c.ExhaustiveSweep(f.Data, f.Dims, req)
			if err != nil {
				t.Fatal(err)
			}
			regret, err := c.Regret(dec, sw)
			if err != nil {
				t.Fatal(err)
			}
			if regret > maxRegret {
				t.Errorf("floor %g %s: pick %s/%g regret %.1f%% > %.0f%%",
					floor, spec.Field, dec.Codec, dec.RelEB, 100*regret, 100*maxRegret)
			}
			// The pick must hold up under measured quality.
			for _, e := range sw.Entries {
				if e.Codec == dec.Codec && e.RelEB == dec.RelEB {
					if !e.Feasible {
						t.Errorf("floor %g %s: pick %s/%g measured-infeasible: %s",
							floor, spec.Field, dec.Codec, dec.RelEB, e.Reason)
					}
					if floor > 0 && e.PSNR < floor && !math.IsInf(e.PSNR, 1) {
						t.Errorf("floor %g %s: pick measured %.1f dB below floor",
							floor, spec.Field, e.PSNR)
					}
				}
			}
		}
	}
}

// TestSketchCheaperThanEvaluate pins the whole point of the sketch: pricing
// the full (codec × bound) grid from a sketch must be at least 10x cheaper
// than running full-field compress.Evaluate over the same grid.
func TestSketchCheaperThanEvaluate(t *testing.T) {
	spec := fpdata.IsabelFields()[0]
	f := fpdata.Generate(spec, spec.ScaleFor(1<<18), 42)
	codecs := []string{"sz", "zfp"}

	grid := func() {
		sk, err := NewSketch(f.Data, f.Dims, SketchConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range codecs {
			for _, rel := range compress.PaperErrorBounds {
				if _, err := sk.Predict(name, rel); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	full := func() {
		for _, name := range codecs {
			codec, err := compress.NewHandle(name, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, rel := range compress.PaperErrorBounds {
				eb := compress.AbsBoundFromRelative(rel, f.Data)
				if _, err := compress.Evaluate(codec, f.Data, f.Dims, eb); err != nil {
					t.Fatal(err)
				}
			}
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
	grid() // warm up allocator and codec tables before timing
	sketchSec, fullSec := best(grid), best(full)
	if fullSec < 10*sketchSec {
		t.Fatalf("sketch grid %.4fs vs full Evaluate grid %.4fs: less than 10x cheaper", sketchSec, fullSec)
	}
	t.Logf("sketch grid %.2fms, full grid %.0fms (%.0fx)", 1e3*sketchSec, 1e3*fullSec, fullSec/sketchSec)
}

// TestFeedbackConvergence pins the online loop: over a 3-dump sequence of
// the same tenant field, the predicted-vs-measured ratio error must strictly
// decrease as Observe folds outcomes back into the model.
func TestFeedbackConvergence(t *testing.T) {
	spec := fpdata.IsabelFields()[1] // "P"
	f := holdoutField(t, spec)
	c, err := New(Config{Codecs: []string{"sz"}, Bounds: []float64{1e-3}})
	if err != nil {
		t.Fatal(err)
	}
	codec, err := compress.NewHandle("sz", 0)
	if err != nil {
		t.Fatal(err)
	}
	eb := compress.AbsBoundFromRelative(1e-3, f.Data)
	res, err := compress.Evaluate(codec, f.Data, f.Dims, eb)
	if err != nil {
		t.Fatal(err)
	}
	measured := res.Ratio()

	var errs []float64
	for dump := 0; dump < 3; dump++ {
		sk, err := c.Sketch(f.Data, f.Dims)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := c.Decide(sk, Request{})
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, RatioError(dec.Predicted.Ratio, measured))
		c.Observe(Outcome{
			Codec: dec.Codec, RelEB: dec.RelEB,
			PredictedRatio: dec.Predicted.Ratio, MeasuredRatio: measured,
		})
	}
	t.Logf("ratio error per dump: %.4f -> %.4f -> %.4f", errs[0], errs[1], errs[2])
	for i := 1; i < len(errs); i++ {
		if !(errs[i] < errs[i-1]) {
			t.Fatalf("dump %d: ratio error %.5f did not decrease from %.5f", i, errs[i], errs[i-1])
		}
	}
}

// TestEnergyFeedback checks the per-codec energy correction shifts pricing.
func TestEnergyFeedback(t *testing.T) {
	spec := fpdata.IsabelFields()[0]
	f := holdoutField(t, spec)
	c, err := New(Config{Codecs: []string{"sz"}, Bounds: []float64{1e-3}})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := c.Sketch(f.Data, f.Dims)
	if err != nil {
		t.Fatal(err)
	}
	before, err := c.Decide(sk, Request{})
	if err != nil {
		t.Fatal(err)
	}
	// Report that reality costs 2x the model's estimate.
	c.Observe(Outcome{Codec: "sz", RelEB: 1e-3, PredictedJoules: 1, MeasuredJoules: 2})
	after, err := c.Decide(sk, Request{})
	if err != nil {
		t.Fatal(err)
	}
	want := before.EnergyJ * math.Exp(0.5*math.Log(2))
	if math.Abs(after.EnergyJ/want-1) > 1e-9 {
		t.Fatalf("energy correction: got %.6g want %.6g (before %.6g)", after.EnergyJ, want, before.EnergyJ)
	}
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

// TestDecideAxes exercises the parity, delta and wire axes and their
// break-even economics.
func TestDecideAxes(t *testing.T) {
	spec := fpdata.IsabelFields()[3]
	f := holdoutField(t, spec)
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := c.Sketch(f.Data, f.Dims)
	if err != nil {
		t.Fatal(err)
	}

	// Tiny churn: a delta dump ships almost nothing, so it must win and the
	// break-even churn must sit above the requested rate.
	dec, err := c.Decide(sk, Request{ChurnRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Delta {
		t.Fatalf("churn 0.01 should pick delta; break-even %.3f", dec.DeltaBreakEvenChurn)
	}
	if !(dec.DeltaBreakEvenChurn > 0.01 && dec.DeltaBreakEvenChurn <= 1) {
		t.Fatalf("delta break-even churn %.3f outside (0.01, 1]", dec.DeltaBreakEvenChurn)
	}

	// Parity axis: with loss probability far above break-even, parity wins.
	req := Request{Ranks: 16, ParityRanks: 2, RankLossProb: 0.9}
	dec, err = c.Decide(sk, req)
	if err != nil {
		t.Fatal(err)
	}
	if !(dec.ParityBreakEvenLossProb > 0) {
		t.Fatalf("parity break-even not computed: %v", dec.ParityBreakEvenLossProb)
	}
	if dec.ParityRanks == 0 && req.RankLossProb > dec.ParityBreakEvenLossProb {
		t.Fatalf("loss prob %.2f above break-even %.3f but parity not chosen",
			req.RankLossProb, dec.ParityBreakEvenLossProb)
	}

	// Wire axis over a slow link: compression on the wire must win and the
	// break-even bandwidth must exceed the link's.
	slow := netsim.TenGbE().WithBandwidth(50e6)
	dec, err = c.Decide(sk, Request{WireLink: &slow})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.WireCompress {
		t.Fatal("50 Mbps link should pick wire compression")
	}
	if !(dec.WireBreakEvenBps > 50e6) {
		t.Fatalf("wire break-even %.3g bps should exceed the 50e6 link", dec.WireBreakEvenBps)
	}
	if dec.RecoveryJoules != 0 {
		t.Fatalf("no loss prob: recovery joules should be 0, got %g", dec.RecoveryJoules)
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

// TestRatioTracker pins the per-stream smoother the svc advice path uses.
func TestRatioTracker(t *testing.T) {
	tr := NewRatioTracker()
	if got := tr.Estimate("sz", 1e-3, 7); got != 7 {
		t.Fatalf("empty tracker fallback: got %g want 7", got)
	}
	tr.Observe("sz", 1e-3, 10)
	if got := tr.Estimate("sz", 1e-3, 7); math.Abs(got-10) > 1e-12 {
		t.Fatalf("first observation should seed the estimate: got %g", got)
	}
	tr.Observe("sz", 1e-3, 40)
	got := tr.Estimate("sz", 1e-3, 7)
	if !(got > 10 && got < 40) {
		t.Fatalf("smoothed estimate %g outside (10, 40)", got)
	}
	// Bad inputs are ignored, other keys untouched.
	tr.Observe("", 1e-3, 10)
	tr.Observe("sz", 0, 10)
	tr.Observe("sz", 1e-3, math.Inf(1))
	if got2 := tr.Estimate("sz", 1e-3, 7); got2 != got {
		t.Fatalf("bad observations changed the estimate: %g -> %g", got, got2)
	}
	if got := tr.Estimate("zfp", 1e-3, 3); got != 3 {
		t.Fatalf("unseen key should fall back: got %g", got)
	}
}

// TestEvaluateGridMatchesStaticPricing sanity-checks the hoisted grid: 8
// entries, sorted ascending, looser bounds cheaper within a codec.
func TestEvaluateGrid(t *testing.T) {
	spec, err := fpdata.Lookup("NYX", "")
	if err != nil {
		t.Fatal(err)
	}
	f := fpdata.Generate(spec, spec.ScaleFor(1<<16), 1)
	grid, err := EvaluateGrid(f.Data, f.Dims, GridOptions{MinPSNR: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 8 {
		t.Fatalf("grid has %d entries, want 8", len(grid))
	}
	for i := 1; i < len(grid); i++ {
		if grid[i-1].EnergyJ > grid[i].EnergyJ {
			t.Fatal("grid not sorted by energy")
		}
	}
	for _, e := range grid {
		if e.EnergyJ <= 0 || e.Seconds <= 0 || e.Ratio < 1 {
			t.Fatalf("degenerate entry: %+v", e)
		}
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
