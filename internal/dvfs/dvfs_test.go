package dvfs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTableIIRanges(t *testing.T) {
	bw := Broadwell()
	if bw.MinGHz != 0.8 || bw.BaseGHz != 2.0 || bw.Series != "Broadwell" || bw.Node != "m510" {
		t.Fatalf("Broadwell profile: %+v", bw)
	}
	sk := Skylake()
	if sk.MinGHz != 0.8 || sk.BaseGHz != 2.2 || sk.Series != "Skylake" || sk.Node != "c220g5" {
		t.Fatalf("Skylake profile: %+v", sk)
	}
	if bw.TDP != 45 || sk.TDP != 85 {
		t.Fatalf("TDP: bw=%v sk=%v", bw.TDP, sk.TDP)
	}
}

func TestFrequencyGrid(t *testing.T) {
	bw := Broadwell()
	fs := bw.Frequencies()
	if fs[0] != 0.8 || fs[len(fs)-1] != 2.0 {
		t.Fatalf("grid endpoints %v..%v", fs[0], fs[len(fs)-1])
	}
	// (2.0-0.8)/0.05 + 1 = 25 steps
	if len(fs) != 25 {
		t.Fatalf("grid size %d, want 25", len(fs))
	}
	for i := 1; i < len(fs); i++ {
		if math.Abs(fs[i]-fs[i-1]-StepGHz) > 1e-9 {
			t.Fatalf("non-uniform step at %d: %v", i, fs[i]-fs[i-1])
		}
	}
	sk := Skylake()
	fsk := sk.Frequencies()
	if len(fsk) != 29 {
		t.Fatalf("Skylake grid size %d, want 29", len(fsk))
	}
}

func TestClampFreq(t *testing.T) {
	bw := Broadwell()
	cases := []struct{ in, want float64 }{
		{0.5, 0.8}, {3.0, 2.0}, {1.23, 1.25}, {1.22, 1.2}, {0.8, 0.8}, {2.0, 2.0},
	}
	for _, c := range cases {
		if got := bw.ClampFreq(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("ClampFreq(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestChipByName(t *testing.T) {
	for _, name := range []string{"Broadwell", "Skylake", "Xeon D-1548", "m510", "c220g5"} {
		if _, err := ChipByName(name); err != nil {
			t.Errorf("ChipByName(%q): %v", name, err)
		}
	}
	if _, err := ChipByName("EPYC"); err == nil {
		t.Error("unknown chip accepted")
	}
}

func TestVoltageMonotone(t *testing.T) {
	for _, c := range Chips() {
		fs := c.Frequencies()
		prev := 0.0
		for _, f := range fs {
			v := c.Voltage(f)
			if v < prev {
				t.Fatalf("%s: voltage not monotone at %v GHz", c.Series, f)
			}
			if v < 0.5 || v > 1.2 {
				t.Fatalf("%s: implausible voltage %v at %v GHz", c.Series, v, f)
			}
			prev = v
		}
	}
}

func TestPowerMonotoneAndBounded(t *testing.T) {
	for _, c := range Chips() {
		prev := 0.0
		for _, f := range c.Frequencies() {
			p := c.BusyPower(f)
			if p <= prev {
				t.Fatalf("%s: power not strictly increasing at %v GHz", c.Series, f)
			}
			if p > c.TDP {
				t.Fatalf("%s: single-core power %v exceeds TDP %v", c.Series, p, c.TDP)
			}
			prev = p
		}
	}
}

// The paper's Figure 1 shape: scaled power has a high floor (most power is
// static) and Skylake's floor sits in a narrower band than Broadwell's.
func TestScaledPowerFloor(t *testing.T) {
	for _, c := range Chips() {
		pmin := c.BusyPower(c.MinGHz)
		pmax := c.BusyPower(c.BaseGHz)
		floor := pmin / pmax
		if floor < 0.6 || floor > 0.95 {
			t.Errorf("%s: scaled power floor %.3f outside the paper's regime", c.Series, floor)
		}
	}
}

// The critical power slope: Skylake's power must be much flatter than
// Broadwell's over the lower 3/4 of the range, then jump near the top.
func TestCriticalPowerSlopeShape(t *testing.T) {
	sk := Skylake()
	p75 := sk.BusyPower(sk.MinGHz + 0.75*(sk.BaseGHz-sk.MinGHz))
	pmin := sk.BusyPower(sk.MinGHz)
	pmax := sk.BusyPower(sk.BaseGHz)
	lowRise := (p75 - pmin) / (pmax - pmin)
	if lowRise > 0.45 {
		t.Errorf("Skylake: %.0f%% of the power rise happens below 75%% frequency; expected a knee near the top", lowRise*100)
	}
	bw := Broadwell()
	b75 := bw.BusyPower(bw.MinGHz + 0.75*(bw.BaseGHz-bw.MinGHz))
	bRise := (b75 - bw.BusyPower(bw.MinGHz)) / (bw.BusyPower(bw.BaseGHz) - bw.BusyPower(bw.MinGHz))
	if bRise < lowRise {
		t.Errorf("Broadwell rise (%.2f) should be more gradual than Skylake's knee (%.2f)", bRise, lowRise)
	}
}

func TestWaitPowerOrdering(t *testing.T) {
	for _, c := range Chips() {
		for _, f := range c.Frequencies() {
			io, mem, b := c.IOWaitPower(f), c.MemWaitPower(f), c.BusyPower(f)
			if !(io < mem && mem < b) {
				t.Fatalf("%s at %v GHz: want io (%v) < mem-wait (%v) < busy (%v)",
					c.Series, f, io, mem, b)
			}
		}
	}
}

func TestPowerUtilizationClamped(t *testing.T) {
	c := Broadwell()
	if c.Power(1.5, -1) != c.Power(1.5, 0) {
		t.Error("negative utilization not clamped")
	}
	if c.Power(1.5, 2) != c.Power(1.5, 1) {
		t.Error("excess utilization not clamped")
	}
}

func TestGovernor(t *testing.T) {
	g := NewGovernor(Broadwell())
	if g.cur != 2.0 {
		t.Fatalf("initial frequency %v", g.cur)
	}
	if got := g.Set(1.23); math.Abs(got-1.25) > 1e-9 {
		t.Fatalf("Set(1.23) = %v", got)
	}
	if g.cur != 1.25 {
		t.Fatalf("current frequency %v", g.cur)
	}
	// Eqn 3: 0.875 * 2.0 = 1.75 is on the grid.
	if got := g.SetScaled(0.875); math.Abs(got-1.75) > 1e-9 {
		t.Fatalf("SetScaled(0.875) = %v", got)
	}
	if g.Chip().Series != "Broadwell" {
		t.Fatalf("Chip() = %v", g.Chip().Series)
	}
}

// Property: ClampFreq is idempotent and always lands on the grid.
func TestQuickClampIdempotent(t *testing.T) {
	bw := Broadwell()
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		c1 := bw.ClampFreq(x)
		c2 := bw.ClampFreq(c1)
		if math.Abs(c1-c2) > 1e-12 {
			return false
		}
		steps := c1 / StepGHz
		return math.Abs(steps-math.Round(steps)) < 1e-9 && c1 >= bw.MinGHz && c1 <= bw.BaseGHz
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 3, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: power is monotone in utilization at every frequency.
func TestQuickPowerMonotoneUtil(t *testing.T) {
	sk := Skylake()
	f := func(u1, u2 float64) bool {
		u1 = math.Abs(math.Mod(u1, 1))
		u2 = math.Abs(math.Mod(u2, 1))
		if u1 > u2 {
			u1, u2 = u2, u1
		}
		return sk.Power(1.5, u1) <= sk.Power(1.5, u2)
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 2, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestCascadeLakeProfile(t *testing.T) {
	cl := CascadeLake()
	if cl.Series != "CascadeLake" || cl.MinGHz != 1.0 || cl.BaseGHz != 2.1 {
		t.Fatalf("profile: %+v", cl)
	}
	// Monotone, bounded power like the paper pair.
	prev := 0.0
	for _, f := range cl.Frequencies() {
		p := cl.BusyPower(f)
		if p <= prev || p > cl.TDP {
			t.Fatalf("power %v at %v GHz", p, f)
		}
		prev = p
	}
	// Knee shape persists into the new generation.
	p75 := cl.BusyPower(cl.MinGHz + 0.75*(cl.BaseGHz-cl.MinGHz))
	rise := (p75 - cl.BusyPower(cl.MinGHz)) / (cl.BusyPower(cl.BaseGHz) - cl.BusyPower(cl.MinGHz))
	if rise > 0.45 {
		t.Fatalf("CascadeLake lost the knee: %.2f of rise below 75%% frequency", rise)
	}
	if len(ExtendedChips()) != 3 {
		t.Fatalf("ExtendedChips: %d", len(ExtendedChips()))
	}
	if _, err := ChipByName("CascadeLake"); err != nil {
		t.Fatal(err)
	}
	if _, err := ChipByName("c6420"); err != nil {
		t.Fatal(err)
	}
}

func TestPowerN(t *testing.T) {
	c := Skylake()
	// One core matches the single-core model.
	if math.Abs(c.PowerN(1.8, 1, 1)-c.Power(1.8, 1)) > 1e-12 {
		t.Fatal("PowerN(1) != Power")
	}
	// Dynamic term scales with cores; static does not.
	p1 := c.PowerN(1.8, 1, 1)
	p4 := c.PowerN(1.8, 4, 1)
	dyn1 := p1 - c.PowerN(1.8, 1, 0)
	if math.Abs((p4-p1)-3*dyn1) > 1e-9 {
		t.Fatalf("core scaling: p4-p1 = %v, want %v", p4-p1, 3*dyn1)
	}
	if c.PowerN(1.8, 0, 1) != p1 {
		t.Fatal("cores<1 must clamp")
	}
}
