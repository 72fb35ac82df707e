package transit

import (
	"math"
	"testing"

	"lcpio/internal/fpdata"
	"lcpio/internal/netsim"
	"lcpio/internal/phases"
)

// testField generates a smooth Isabel-like field small enough for fast
// round trips.
func testField(t testing.TB, seed int64) *fpdata.Field {
	t.Helper()
	spec, err := fpdata.Lookup("Hurricane-ISABEL", "P")
	if err != nil {
		t.Fatal(err)
	}
	return fpdata.Generate(spec, spec.ScaleFor(48_000), seed)
}

func testEconomics(t testing.TB, link netsim.Link, codec string, relEB float64, seed int64) Economics {
	t.Helper()
	f := testField(t, seed)
	e, _, err := BreakEven(link, codec, relEB, f.Data, f.Dims)
	if err != nil {
		t.Fatalf("%s/%g: %v", codec, relEB, err)
	}
	return e
}

// TestLossyChannelShrinksAndBoundsError checks the round trip behind
// Economics: a smooth field shrinks, both codec legs are priced, and the
// reconstruction honors the range-relative bound on every element.
func TestLossyChannelShrinksAndBoundsError(t *testing.T) {
	f := testField(t, 2)
	for _, codec := range []string{"sz", "zfp"} {
		e, recon, err := BreakEven(netsim.TenGbE(), codec, 1e-3, f.Data, f.Dims)
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		if e.Ratio <= 1.5 {
			t.Errorf("%s: ratio %g too low for a smooth field", codec, e.Ratio)
		}
		if e.CompressSeconds <= 0 || e.DecompressSeconds <= 0 || e.CompressJoules <= 0 || e.DecompressJoules <= 0 {
			t.Errorf("%s: non-positive modeled codec legs %+v", codec, e)
		}
		if e.ULP.Count != len(f.Data) {
			t.Errorf("%s: ULP stats cover %d of %d elements", codec, e.ULP.Count, len(f.Data))
		}
		lo, hi := f.Data[0], f.Data[0]
		for _, x := range f.Data {
			lo, hi = min(lo, x), max(hi, x)
		}
		bound := 1e-3 * float64(hi-lo) * 1.000001
		for i := range f.Data {
			if d := math.Abs(float64(recon[i]) - float64(f.Data[i])); d > bound {
				t.Fatalf("%s: element %d error %g exceeds bound %g", codec, i, d, bound)
			}
		}
	}
}

func TestBreakEvenGuards(t *testing.T) {
	f := testField(t, 7)
	if _, _, err := BreakEven(netsim.Link{}, "sz", 1e-3, f.Data, f.Dims); err == nil {
		t.Error("zero-bandwidth link accepted")
	}
	if _, _, err := BreakEven(netsim.TenGbE(), "nope", 1e-3, f.Data, f.Dims); err == nil {
		t.Error("unknown codec accepted")
	}
	for _, relEB := range []float64{0, -1e-3, 1, 1.5, math.NaN()} {
		if _, _, err := BreakEven(netsim.TenGbE(), "sz", relEB, f.Data, f.Dims); err == nil {
			t.Errorf("relEB %g accepted", relEB)
		}
	}
	if _, _, err := BreakEven(netsim.TenGbE(), "sz", 1e-3, []float32{1, 2}, []int{3}); err == nil {
		t.Error("dims/data mismatch accepted")
	}
}

// TestBreakEvenMatchesSweep is the acceptance check for the closed form: on
// two codecs at two bounds each, simulating both paths must put the
// time-parity bandwidth within 1% of it — compressing still wins 1% below
// the closed form and already loses 1% above.
func TestBreakEvenMatchesSweep(t *testing.T) {
	for _, codec := range []string{"sz", "zfp"} {
		for _, relEB := range []float64{1e-3, 1e-5} {
			e := testEconomics(t, netsim.TenGbE(), codec, relEB, 11)
			if e.BreakEvenBps <= 0 || math.IsInf(e.BreakEvenBps, 0) {
				t.Fatalf("%s/%g: degenerate break-even %g (ratio %g)",
					codec, relEB, e.BreakEvenBps, e.Ratio)
			}
			pts := e.Sweep([]float64{e.BreakEvenBps * 0.99, e.BreakEvenBps * 1.01})
			if !pts[0].CompressionWins || pts[1].CompressionWins {
				t.Errorf("%s/%g: simulated parity is not within 1%% of the closed form %.4g bps: %+v",
					codec, relEB, e.BreakEvenBps, pts)
			}
			if e.EnergyBreakEvenBps <= 0 || math.IsInf(e.EnergyBreakEvenBps, 0) {
				t.Errorf("%s/%g: degenerate energy break-even %g",
					codec, relEB, e.EnergyBreakEvenBps)
			}
		}
	}
}

// TestBreakEvenMonotoneInLinkBandwidth is the netsim.Custom property test:
// for a fixed payload, time saved by compressing decreases monotonically as
// the link gets faster, and the break-even bandwidth itself is invariant to
// which bandwidth the link was built with.
func TestBreakEvenMonotoneInLinkBandwidth(t *testing.T) {
	var prevSaved float64
	var prevBE float64
	for i, gbps := range []float64{0.1, 1, 10, 40, 100} {
		link, err := netsim.Custom("sweep", gbps*1e9, 50e-6, 1500, 66)
		if err != nil {
			t.Fatal(err)
		}
		e := testEconomics(t, link, "zfp", 1e-3, 13)
		saved := e.RawSeconds(link.BandwidthBps) - e.CompressedSeconds(link.BandwidthBps)
		if i > 0 {
			if saved >= prevSaved {
				t.Errorf("time saved not strictly decreasing: %g bps saves %g s, slower link saved %g s",
					link.BandwidthBps, saved, prevSaved)
			}
			if rel := math.Abs(e.BreakEvenBps-prevBE) / prevBE; rel > 1e-9 {
				t.Errorf("break-even drifted with construction bandwidth: %g vs %g", e.BreakEvenBps, prevBE)
			}
		}
		prevSaved, prevBE = saved, e.BreakEvenBps
	}
}

func TestBreakEvenBpsClosedFormEdges(t *testing.T) {
	link := netsim.TenGbE()
	if got := phases.WireBreakEven(link, 1000, 1000, 1e-3); got != 0 {
		t.Errorf("incompressible payload: break-even %g, want 0", got)
	}
	if got := phases.WireBreakEven(link, 1000, 2000, 1e-3); got != 0 {
		t.Errorf("expanding payload: break-even %g, want 0", got)
	}
	if got := phases.WireBreakEven(link, 1000, 100, 0); !math.IsInf(got, 1) {
		t.Errorf("free compute: break-even %g, want +Inf", got)
	}
	// Framing matters: jumbo frames ship fewer header bytes, so the wire
	// saving shrinks and the break-even point drops.
	std := phases.WireBreakEven(netsim.TenGbE(), 1<<20, 1<<17, 1e-3)
	jumbo := phases.WireBreakEven(netsim.JumboTenGbE(), 1<<20, 1<<17, 1e-3)
	if jumbo >= std {
		t.Errorf("jumbo framing %g should break even below standard %g", jumbo, std)
	}
}

func TestSweepTable(t *testing.T) {
	e := testEconomics(t, netsim.TenGbE(), "sz", 1e-3, 14)
	pts := e.Sweep([]float64{e.BreakEvenBps / 10, e.BreakEvenBps * 10})
	if len(pts) != 2 {
		t.Fatalf("want 2 points, got %d", len(pts))
	}
	if !pts[0].CompressionWins || pts[1].CompressionWins {
		t.Errorf("winner flags wrong around break-even: %+v", pts)
	}
	if pts[0].GoodputBps <= pts[0].RawGoodputBps {
		t.Errorf("below break-even compressed goodput %g should beat raw %g",
			pts[0].GoodputBps, pts[0].RawGoodputBps)
	}
}

func TestCustomLinkDegenerateInputs(t *testing.T) {
	cases := []struct {
		name     string
		bps, lat float64
		mtu, hdr int
	}{
		{"zero bandwidth", 0, 0, 1500, 66},
		{"negative bandwidth", -1, 0, 1500, 66},
		{"inf bandwidth", math.Inf(1), 0, 1500, 66},
		{"nan latency", 1e9, math.NaN(), 1500, 66},
		{"negative latency", 1e9, -1e-6, 1500, 66},
		{"tiny mtu", 1e9, 0, 66, 66},
		{"negative headers", 1e9, 0, 1500, -1},
	}
	for _, tc := range cases {
		if _, err := netsim.Custom(tc.name, tc.bps, tc.lat, tc.mtu, tc.hdr); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	l, err := netsim.Custom("", 25e9, 5e-6, 9000, 66)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name == "" {
		t.Error("default name not generated")
	}
	if got := netsim.TenGbE().WithBandwidth(1e9).BandwidthBps; got != 1e9 {
		t.Errorf("WithBandwidth = %g", got)
	}
}
