package transit

import (
	"math"
	"testing"

	"lcpio/internal/netsim"
	"lcpio/internal/phases"
)

// TestBreakEvenMatchesSweep is the ISSUE acceptance check: the closed-form
// break-even bandwidth must agree with an exhaustive sweep within 1% on at
// least two codecs at two bounds each.
func TestBreakEvenMatchesSweep(t *testing.T) {
	p := testPayload(t, 11)
	for _, codec := range []string{"sz", "zfp"} {
		for _, relEB := range []float64{1e-3, 1e-5} {
			c := newTestChannel(t, codec, relEB, 1)
			e, err := c.BreakEven(p)
			if err != nil {
				t.Fatalf("%s/%g: %v", codec, relEB, err)
			}
			if e.BreakEvenBps <= 0 || math.IsInf(e.BreakEvenBps, 0) {
				t.Fatalf("%s/%g: degenerate break-even %g (ratio %g)",
					codec, relEB, e.BreakEvenBps, e.Ratio)
			}
			sweep := e.SweepBreakEven(1e6, 1e13, 200)
			rel := math.Abs(sweep-e.BreakEvenBps) / e.BreakEvenBps
			if rel > 0.01 {
				t.Errorf("%s/%g: closed form %.4g bps vs sweep %.4g bps (rel %.3g >= 1%%)",
					codec, relEB, e.BreakEvenBps, sweep, rel)
			}
			if e.EnergyBreakEvenBps <= 0 || math.IsInf(e.EnergyBreakEvenBps, 0) {
				t.Errorf("%s/%g: degenerate energy break-even %g",
					codec, relEB, e.EnergyBreakEvenBps)
			}
		}
	}
}

// TestBreakEvenSidesAgreeWithChannel cross-checks the Economics arithmetic
// against an actual channel batch at the same bandwidth: compressing must
// win below break-even and lose above it.
func TestBreakEvenSidesAgreeWithChannel(t *testing.T) {
	p := testPayload(t, 12)
	base := newTestChannel(t, "sz", 1e-3, 1)
	e, err := base.BreakEven(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		factor  float64
		wantWin bool
	}{
		{0.25, true}, // link 4x slower than break-even: compress
		{4.0, false}, // link 4x faster: ship raw
	} {
		bps := e.BreakEvenBps * tc.factor
		link := netsim.TenGbE().WithBandwidth(bps)
		c, err := New(Config{Link: link, Codec: "sz", RelEB: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.SendAll([]Payload{p})
		if err != nil {
			t.Fatal(err)
		}
		if win := b.TimeSavedSeconds() > 0; win != tc.wantWin {
			t.Errorf("at %.3g bps (%.2gx break-even): time saved %g s, want win=%v",
				bps, tc.factor, b.TimeSavedSeconds(), tc.wantWin)
		}
	}
}

// TestBreakEvenMonotoneInLinkBandwidth is the netsim.Custom property test:
// for a fixed payload, time saved by compressing decreases monotonically as
// the link gets faster, and the break-even bandwidth itself is invariant to
// which bandwidth the channel was constructed with.
func TestBreakEvenMonotoneInLinkBandwidth(t *testing.T) {
	p := testPayload(t, 13)
	var prevSaved float64
	var prevBE float64
	for i, gbps := range []float64{0.1, 1, 10, 40, 100} {
		link, err := netsim.Custom("sweep", gbps*1e9, 50e-6, 1500, 66)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(Config{Link: link, Codec: "zfp", RelEB: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		e, err := c.BreakEven(p)
		if err != nil {
			t.Fatal(err)
		}
		saved := e.TimeSavedSeconds(link.BandwidthBps)
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
	p := testPayload(t, 14)
	c := newTestChannel(t, "sz", 1e-3, 1)
	e, err := c.BreakEven(p)
	if err != nil {
		t.Fatal(err)
	}
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
