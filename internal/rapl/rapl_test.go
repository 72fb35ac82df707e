package rapl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeterIntegration(t *testing.T) {
	var m Meter
	m.AddPhase(Package, 15, 2)   // 30 J
	m.AddPhase(Package, 10, 0.5) // 5 J
	m.AddPhase(DRAM, 3, 2.5)     // 7.5 J
	if e := m.Energy(Package); math.Abs(e-35) > 0.01 {
		t.Fatalf("package energy %v, want 35", e)
	}
	if e := m.Energy(DRAM); math.Abs(e-7.5) > 0.01 {
		t.Fatalf("dram energy %v, want 7.5", e)
	}
	if el := m.elapsed; math.Abs(el-2.5) > 1e-9 {
		t.Fatalf("elapsed %v, want 2.5 (DRAM phases must not advance time)", el)
	}
}

func TestMeterRejectsNegativePhases(t *testing.T) {
	var m Meter
	m.AddPhase(Package, -5, 1)
	m.AddPhase(Package, 5, -1)
	if m.Energy(Package) != 0 || m.elapsed != 0 {
		t.Fatal("negative phases must be ignored")
	}
}

func TestCounterQuantization(t *testing.T) {
	var c Counter
	c.Add(1.0)
	// One joule = 2^14 units.
	if got := c.Read(); got != 1<<14 {
		t.Fatalf("Read = %d, want %d", got, 1<<14)
	}
	c.Add(math.NaN())
	if got := c.Read(); got != 1<<14 {
		t.Fatalf("NaN add changed counter: %d", got)
	}
}

func TestDeltaJoulesSimple(t *testing.T) {
	if d := DeltaJoules(0, 1<<14); math.Abs(d-1) > 1e-9 {
		t.Fatalf("delta %v, want 1 J", d)
	}
	if d := DeltaJoules(100, 100); d != 0 {
		t.Fatalf("zero delta %v", d)
	}
}

func TestDeltaJoulesWraparound(t *testing.T) {
	// A reading that wrapped past 2^32 must unwrap correctly.
	before := uint32(0xFFFFF000)
	after := uint32(0x00000100)
	wantUnits := float64(0x1000 + 0x100)
	if d := DeltaJoules(before, after); math.Abs(d-wantUnits*energyUnit) > 1e-9 {
		t.Fatalf("wrapped delta %v, want %v", d, wantUnits*energyUnit)
	}
}

func TestSessionMatchesMeter(t *testing.T) {
	var m Meter
	m.AddPhase(Package, 12, 1) // pre-session energy: must be excluded
	s := Start(&m)
	m.AddPhase(Package, 14, 3)
	m.AddPhase(DRAM, 2, 3)
	r := s.Stop()
	if math.Abs(r.PackageJoules-42) > 0.01 {
		t.Fatalf("session pkg %v, want 42", r.PackageJoules)
	}
	if math.Abs(r.DRAMJoules-6) > 0.01 {
		t.Fatalf("session dram %v, want 6", r.DRAMJoules)
	}
	if math.Abs(r.Seconds-3) > 1e-9 {
		t.Fatalf("session time %v, want 3", r.Seconds)
	}
	if math.Abs(r.AvgPowerWatts()-16) > 0.02 {
		t.Fatalf("avg power %v, want 16", r.AvgPowerWatts())
	}
	// Stop is idempotent.
	r2 := s.Stop()
	if r2.PackageJoules != r.PackageJoules {
		t.Fatal("Stop not idempotent")
	}
}

func TestSessionSurvivesCounterWrap(t *testing.T) {
	var m Meter
	s := Start(&m)
	// 2^32 units * 2^-14 J/unit = 262144 J per wrap. Deposit 3 wraps worth
	// in chunks, sampling between chunks as a dutiful reader would.
	chunk := 200000.0
	for i := 0; i < 4; i++ {
		m.AddPhase(Package, chunk, 1)
		s.Sample()
	}
	r := s.Stop()
	if math.Abs(r.PackageJoules-4*chunk) > 1 {
		t.Fatalf("wrapped session energy %v, want %v", r.PackageJoules, 4*chunk)
	}
}

func TestReportString(t *testing.T) {
	r := Report{PackageJoules: 10, DRAMJoules: 2, Seconds: 4}
	if r.TotalJoules() != 12 {
		t.Fatalf("TotalJoules %v", r.TotalJoules())
	}
	if r.AvgPowerWatts() != 3 {
		t.Fatalf("AvgPowerWatts %v", r.AvgPowerWatts())
	}
	if s := r.String(); s == "" {
		t.Fatal("empty String")
	}
	zero := Report{}
	if zero.AvgPowerWatts() != 0 {
		t.Fatal("zero-time avg power must be 0")
	}
}

func TestDomainString(t *testing.T) {
	if Package.String() != "energy-pkg" || DRAM.String() != "energy-ram" {
		t.Fatal("domain names")
	}
	if Domain(9).String() == "" {
		t.Fatal("unknown domain should render")
	}
}

// Property: for any sequence of positive deposits with interleaved samples,
// the session total equals the meter total (unwrapping never loses energy).
func TestQuickUnwrapLossless(t *testing.T) {
	f := func(deposits []uint16) bool {
		var m Meter
		s := Start(&m)
		var want float64
		for _, d := range deposits {
			j := float64(d) // up to 65535 J per deposit, well under a wrap
			m.AddPhase(Package, j, 1)
			want += j
			s.Sample()
		}
		r := s.Stop()
		return math.Abs(r.PackageJoules-want) <= 1e-3*math.Max(want, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 1, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
