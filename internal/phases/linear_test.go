package phases

import (
	"math"
	"testing"

	"lcpio/internal/dvfs"
	"lcpio/internal/netsim"
	"lcpio/internal/nfs"
)

// Energy and time are integrals of constant power over work that is linear
// in bytes, so a priced leg must be exactly linear in bytes at any size: no
// quantisation at the small end, no wrap at the large end. Doubling from
// 1 KiB to 1 EiB only ever scales by a power of two, so the tolerance is
// rounding, not model error.
func TestLegLinearInBytes(t *testing.T) {
	const tol = 1e-12
	for _, chip := range dvfs.ExtendedChips() {
		pr := NewPricer(chip, PaperRule())
		stages := map[string]func(bytes int64) (Phase, error){
			"dedup": pr.Dedup,
		}
		for _, codec := range []string{"sz", "zfp"} {
			codec := codec
			stages[codec+" compress"] = func(b int64) (Phase, error) { return pr.Compress(codec, b, 1e-3, 9) }
			stages[codec+" decompress"] = func(b int64) (Phase, error) { return pr.Decompress(codec, b, 1e-3, 9) }
		}
		for name, stage := range stages {
			var prev Leg
			for b := int64(1) << 10; b <= 1<<60; b <<= 1 {
				p, err := stage(b)
				if err != nil {
					t.Fatal(err)
				}
				leg, err := pr.Leg(p)
				if err != nil {
					t.Fatal(err)
				}
				if !(leg.Joules > 0 && leg.Seconds > 0) {
					t.Fatalf("%s %s at %d B: degenerate leg %+v", chip.Series, name, b, leg)
				}
				if prev.Joules > 0 {
					if math.Abs(leg.Joules/prev.Joules-2) > 2*tol {
						t.Errorf("%s %s: %d B costs %.17g J, half of it %.17g J (x%.15f)",
							chip.Series, name, b, leg.Joules, prev.Joules, leg.Joules/prev.Joules)
					}
					if math.Abs(leg.Seconds/prev.Seconds-2) > 2*tol {
						t.Errorf("%s %s: %d B takes %.17g s, half of it %.17g s",
							chip.Series, name, b, leg.Seconds, prev.Seconds)
					}
				}
				prev = leg
			}
		}
	}
}

// BreakEven bisects on the sign of a joule difference between two Move
// legs, which is only sound if a Move leg's energy is monotone: it never
// rises with bandwidth at fixed bytes and never falls with bytes at fixed
// bandwidth. Over an NFS mount the transfer is O(RPCs) to simulate, so the
// check there stops at 1 TiB and asks for linearity within 1%.
func TestMoveMonotone(t *testing.T) {
	pr := NewPricer(nil, PaperRule())
	base, err := netsim.Custom("monotone", 10e9, 50e-6, 1500, 66)
	if err != nil {
		t.Fatal(err)
	}
	joules := func(to Sink, bytes int64) float64 {
		leg, err := pr.Leg(pr.Move(to, bytes))
		if err != nil {
			t.Fatal(err)
		}
		return leg.Joules
	}
	// 1 kbps (BreakEven's lower bracket) to 100 Gbps, five steps a decade.
	for _, bytes := range []int64{4 << 10, 3_600_000, 1 << 30, 1 << 40} {
		prev := math.Inf(1)
		for bps := 1e3; bps <= 1.0001e11; bps *= math.Pow(10, 0.2) {
			j := joules(Link(base.WithBandwidth(bps)), bytes)
			if j > prev {
				t.Errorf("%d B: %.6g J at %.4g bps, but %.6g J on the slower link", bytes, j, bps, prev)
			}
			prev = j
		}
	}
	for _, bps := range []float64{1e3, 1e6, 1e9, 1e11} {
		prev := 0.0
		for bytes := int64(1) << 10; bytes <= 1<<50; bytes <<= 2 {
			j := joules(Link(base.WithBandwidth(bps)), bytes)
			if j < prev {
				t.Errorf("%.4g bps: %d B costs %.6g J, a quarter of it %.6g J", bps, bytes, j, prev)
			}
			prev = j
		}
	}
	mount := nfs.DefaultMount()
	for name, to := range map[string]Sink{"nfs write": mount.Write, "nfs read": mount.Read} {
		perGiB := joules(to, 1<<30)
		for gib := int64(4); gib <= 1<<10; gib <<= 2 {
			if j := joules(to, gib<<30) / float64(gib); math.Abs(j/perGiB-1) > 0.01 {
				t.Errorf("%s: %d GiB costs %.6g J/GiB, 1 GiB costs %.6g", name, gib, j, perGiB)
			}
		}
	}
}
