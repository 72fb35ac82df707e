package nfs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lcpio/internal/netsim"
)

func TestEmptyWrite(t *testing.T) {
	tr := DefaultMount().Write(0)
	if tr.RPCs != 0 || tr.NetworkSeconds != 0 {
		t.Fatalf("empty write: %+v", tr)
	}
	if tr.GoodputBps() != 0 {
		t.Fatal("goodput of empty transfer must be 0")
	}
}

func TestRPCCount(t *testing.T) {
	m := DefaultMount()
	w := int64(m.WSize)
	cases := []struct {
		bytes int64
		want  int64
	}{
		{1, 1}, {w, 1}, {w + 1, 2}, {10 * w, 10}, {10*w - 1, 10},
	}
	for _, c := range cases {
		if got := m.Write(c.bytes).RPCs; got != c.want {
			t.Errorf("Write(%d).RPCs = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestBulkGoodputNearLinkRate(t *testing.T) {
	m := DefaultMount()
	tr := m.Write(4 << 30) // 4 GiB
	g := tr.GoodputBps()
	raw := m.Link.BandwidthBps
	if g > raw {
		t.Fatalf("goodput %v exceeds raw link rate %v", g, raw)
	}
	if g < 0.85*raw {
		t.Fatalf("bulk goodput %v too far below link rate %v (pipeline stall?)", g, raw)
	}
}

func TestWireBusyMatchesSerialization(t *testing.T) {
	m := DefaultMount()
	bytes := int64(512 << 20)
	tr := m.Write(bytes)
	want := m.Link.SerializationTime(int64(m.WSize)) * float64(tr.RPCs-1)
	// Last RPC may be shorter; allow 2% slack.
	if tr.WireBusySeconds < want*0.98 || tr.WireBusySeconds > want*1.05 {
		t.Fatalf("wire busy %.4f, want ~%.4f", tr.WireBusySeconds, want)
	}
}

func TestNetworkWallAtLeastWireBusy(t *testing.T) {
	m := DefaultMount()
	tr := m.Write(100 << 20)
	if tr.NetworkSeconds < tr.WireBusySeconds {
		t.Fatalf("wall %.4f below wire busy %.4f", tr.NetworkSeconds, tr.WireBusySeconds)
	}
}

func TestSmallWindowSlowsTransfer(t *testing.T) {
	fast := DefaultMount()
	slow := DefaultMount()
	slow.MaxInflight = 1
	b := int64(64 << 20)
	tf := fast.Write(b)
	ts := slow.Write(b)
	if ts.NetworkSeconds <= tf.NetworkSeconds {
		t.Fatalf("window=1 (%.4f s) should be slower than window=16 (%.4f s)",
			ts.NetworkSeconds, tf.NetworkSeconds)
	}
}

func TestSlowServerBottleneck(t *testing.T) {
	m := DefaultMount()
	m.ServerBWBps = 1e9 // 1 Gbps server absorption
	tr := m.Write(1 << 30)
	// Goodput must now be bounded by the server, not the 10 Gbps link.
	if g := tr.GoodputBps(); g > 1.1e9 {
		t.Fatalf("goodput %v should be server-bound near 1e9", g)
	}
}

func TestWSizeAblation(t *testing.T) {
	// Small wsize multiplies RPC overhead: more server per-RPC time and a
	// longer wall clock (DESIGN.md §5 ablation).
	big := DefaultMount()
	small := DefaultMount()
	small.WSize = 64 << 10
	b := int64(256 << 20)
	tb := big.Write(b)
	ts := small.Write(b)
	if ts.RPCs <= tb.RPCs {
		t.Fatal("smaller wsize must issue more RPCs")
	}
	if ts.ServerBusySeconds <= tb.ServerBusySeconds {
		t.Fatal("smaller wsize must cost more server time")
	}
}

func TestNormalizedDefaults(t *testing.T) {
	var m Mount
	tr := m.Write(1 << 20)
	if tr.RPCs != 1 {
		t.Fatalf("zero-value mount should normalize to defaults; RPCs=%d", tr.RPCs)
	}
}

func TestTransferString(t *testing.T) {
	if s := DefaultMount().Write(1 << 20).String(); s == "" {
		t.Fatal("empty String")
	}
}

func TestJumboFramesFasterBulk(t *testing.T) {
	std := DefaultMount()
	jumbo := DefaultMount()
	jumbo.Link = netsim.JumboTenGbE()
	b := int64(1 << 30)
	if jumbo.Write(b).NetworkSeconds >= std.Write(b).NetworkSeconds {
		t.Fatal("jumbo frames should speed up bulk writes")
	}
}

// Property: wall time and wire busy time are monotone in payload size.
func TestQuickMonotoneInBytes(t *testing.T) {
	m := DefaultMount()
	f := func(a, b uint32) bool {
		x, y := int64(a)<<8, int64(b)<<8
		if x > y {
			x, y = y, x
		}
		tx, ty := m.Write(x), m.Write(y)
		return tx.NetworkSeconds <= ty.NetworkSeconds+1e-12 &&
			tx.WireBusySeconds <= ty.WireBusySeconds+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.6, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: conservation — wall time is at least payload serialization and
// at most serial (no-pipelining) execution.
func TestQuickWallBounds(t *testing.T) {
	m := DefaultMount()
	f := func(a uint32) bool {
		b := int64(a)%(64<<20) + 1
		tr := m.Write(b)
		lower := m.Link.SerializationTime(b)
		serial := tr.WireBusySeconds + tr.ServerBusySeconds +
			float64(2*tr.RPCs+2)*m.Link.LatencySec
		return tr.NetworkSeconds >= lower-1e-12 && tr.NetworkSeconds <= serial+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.6, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWrite512MB(b *testing.B) {
	m := DefaultMount()
	for i := 0; i < b.N; i++ {
		m.Write(512 << 20)
	}
}

func TestReadMirrorsWrite(t *testing.T) {
	m := DefaultMount()
	b := int64(256 << 20)
	rd := m.Read(b)
	wr := m.Write(b)
	if rd.RPCs != wr.RPCs {
		t.Fatalf("read RPCs %d != write RPCs %d", rd.RPCs, wr.RPCs)
	}
	// Bulk read and write are both link-bound: wall times within 20%.
	ratio := rd.NetworkSeconds / wr.NetworkSeconds
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("read/write wall ratio %.2f", ratio)
	}
	if rd.WireBusySeconds <= 0 || rd.ServerBusySeconds <= 0 {
		t.Fatalf("degenerate read transfer: %+v", rd)
	}
}

func TestReadEmpty(t *testing.T) {
	if tr := DefaultMount().Read(0); tr.RPCs != 0 || tr.NetworkSeconds != 0 {
		t.Fatalf("empty read: %+v", tr)
	}
}

func TestReadGoodputBounded(t *testing.T) {
	m := DefaultMount()
	tr := m.Read(2 << 30)
	if g := tr.GoodputBps(); g > m.Link.BandwidthBps {
		t.Fatalf("read goodput %v exceeds link", g)
	}
}

// The READ pipeline reuses the WRITE window machinery with the data leg
// reversed, so bulk goodput must be symmetric: both directions are
// link-bound and within a few percent of each other (the write side pays
// one extra COMMIT round trip, which amortizes away on bulk transfers).
func TestGoodputSymmetry(t *testing.T) {
	m := DefaultMount()
	for _, b := range []int64{64 << 20, 512 << 20, 4 << 30} {
		wr := m.Write(b).GoodputBps()
		rd := m.Read(b).GoodputBps()
		if wr <= 0 || rd <= 0 {
			t.Fatalf("degenerate goodput at %d bytes: write %v read %v", b, wr, rd)
		}
		ratio := rd / wr
		if ratio < 0.95 || ratio > 1.05 {
			t.Fatalf("%d bytes: read/write goodput ratio %.3f outside [0.95,1.05]", b, ratio)
		}
	}
}

// Per-RPC wire busy time must also be symmetric: the same payload clocks
// the same bytes regardless of direction.
func TestWireBusySymmetry(t *testing.T) {
	m := DefaultMount()
	b := int64(256 << 20)
	wr, rd := m.Write(b), m.Read(b)
	if wr.WireBusySeconds != rd.WireBusySeconds {
		t.Fatalf("wire busy asymmetric: write %.6f read %.6f",
			wr.WireBusySeconds, rd.WireBusySeconds)
	}
}

func faultyMount(seed int64, drop, short float64) Mount {
	m := DefaultMount()
	m.Faults = FaultConfig{
		Injector:       netsim.NewInjector(seed),
		DropProb:       drop,
		ShortWriteProb: short,
	}
	return m
}

func TestFaultInjectionDeterministic(t *testing.T) {
	b := int64(64 << 20)
	a := faultyMount(7, 0.05, 0.05).Write(b)
	c := faultyMount(7, 0.05, 0.05).Write(b)
	if a != c {
		t.Fatalf("same seed, different transfers:\n%+v\n%+v", a, c)
	}
	d := faultyMount(8, 0.05, 0.05).Write(b)
	if a == d {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

// TestSeededScheduleUnchanged pins one seeded drop + short-write schedule
// draw for draw — fault counts and exact simulated times — so a change to
// FaultConfig that is meant to leave seeded schedules alone can show it.
func TestSeededScheduleUnchanged(t *testing.T) {
	b := int64(64 << 20)
	for _, tc := range []struct {
		name                string
		got                 Transfer
		retransmits, shorts int64
		wallBits, wireBits  uint64
	}{
		{"write", faultyMount(7, 0.1, 0.1).Write(b), 9, 1, 0x3fcf6f3303568473, 0x3fb08b04f8afa118},
		{"read", faultyMount(7, 0.1, 0.1).Read(b), 4, 0, 0x3fc1f2bbc49dc684, 0x3fae8d28afe808cf},
	} {
		if tc.got.Retransmits != tc.retransmits || tc.got.ShortWrites != tc.shorts ||
			math.Float64bits(tc.got.NetworkSeconds) != tc.wallBits ||
			math.Float64bits(tc.got.WireBusySeconds) != tc.wireBits {
			t.Errorf("%s: %d retransmits, %d short writes, wall %#x, wire %#x; recorded %d, %d, %#x, %#x",
				tc.name, tc.got.Retransmits, tc.got.ShortWrites,
				math.Float64bits(tc.got.NetworkSeconds), math.Float64bits(tc.got.WireBusySeconds),
				tc.retransmits, tc.shorts, tc.wallBits, tc.wireBits)
		}
	}
}

func TestFaultsSlowTransferAndCount(t *testing.T) {
	b := int64(64 << 20)
	clean := DefaultMount().Write(b)
	faulty := faultyMount(3, 0.1, 0.1).Write(b)
	if faulty.Retransmits == 0 || faulty.ShortWrites == 0 {
		t.Fatalf("expected injected faults, got %+v", faulty)
	}
	if faulty.NetworkSeconds <= clean.NetworkSeconds {
		t.Fatalf("faulty wall %.4f not slower than clean %.4f",
			faulty.NetworkSeconds, clean.NetworkSeconds)
	}
	if faulty.WireBusySeconds <= clean.WireBusySeconds {
		t.Fatal("retransmitted bytes must add wire busy time")
	}
	// Payload accounting is unchanged: faults add work, not data.
	if faulty.PayloadBytes != b || faulty.RPCs != clean.RPCs {
		t.Fatalf("fault injection changed payload accounting: %+v", faulty)
	}
}

func TestReadFaultsRetransmit(t *testing.T) {
	b := int64(64 << 20)
	clean := DefaultMount().Read(b)
	faulty := faultyMount(5, 0.1, 0).Read(b)
	if faulty.Retransmits == 0 {
		t.Fatal("expected read retransmits")
	}
	if faulty.ShortWrites != 0 {
		t.Fatal("short writes cannot happen on the read path")
	}
	if faulty.NetworkSeconds <= clean.NetworkSeconds {
		t.Fatal("read retransmits must cost simulated time")
	}
}

func TestCertainDropStillTerminates(t *testing.T) {
	m := faultyMount(1, 1.0, 0)
	tr := m.Write(8 << 20)
	if tr.NetworkSeconds <= 0 || tr.Retransmits == 0 {
		t.Fatalf("DropProb=1 transfer degenerate: %+v", tr)
	}
}

func TestZeroProbFaultConfigMatchesClean(t *testing.T) {
	b := int64(32 << 20)
	m := DefaultMount()
	m.Faults = FaultConfig{Injector: netsim.NewInjector(1)}
	if got, want := m.Write(b), DefaultMount().Write(b); got != want {
		t.Fatalf("zero-probability faults changed the transfer:\n%+v\n%+v", got, want)
	}
	if m.Faults.Injector.Draws() != 0 {
		t.Fatal("zero-probability faults consumed randomness")
	}
}

func TestRetryPolicyShape(t *testing.T) {
	// The NFS retransmit wait is the shared retry.Policy's constant shape:
	// Max == Base, so the delay never grows with the attempt number.
	if retransmit.MaxAttempts != maxLegAttempts {
		t.Fatalf("policy caps at %d attempts, want %d", retransmit.MaxAttempts, maxLegAttempts)
	}
	for a := 1; a <= maxLegAttempts; a++ {
		if got := retransmit.Backoff(a); got != 20e-3 {
			t.Fatalf("attempt %d wait %v, want constant 20ms", a, got)
		}
	}
}
