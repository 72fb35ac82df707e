package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTenGbEProfile(t *testing.T) {
	l := TenGbE()
	if l.BandwidthBps != 10e9 || l.MTU != 1500 {
		t.Fatalf("TenGbE: %+v", l)
	}
	if l.String() == "" {
		t.Fatal("empty String")
	}
}

func TestPackets(t *testing.T) {
	l := TenGbE()
	pp := int64(l.payloadPerPacket())
	cases := []struct {
		payload int64
		want    int64
	}{
		{0, 0}, {-5, 0}, {1, 1}, {pp, 1}, {pp + 1, 2}, {10 * pp, 10},
	}
	for _, c := range cases {
		if got := l.Packets(c.payload); got != c.want {
			t.Errorf("Packets(%d) = %d, want %d", c.payload, got, c.want)
		}
	}
}

func TestWireBytesIncludesHeaders(t *testing.T) {
	l := TenGbE()
	payload := int64(1 << 20)
	wire := l.WireBytes(payload)
	if wire <= payload {
		t.Fatalf("wire bytes %d not above payload %d", wire, payload)
	}
	overhead := float64(wire-payload) / float64(payload)
	// ~66/1434 = 4.6% framing overhead for standard frames.
	if overhead < 0.03 || overhead > 0.07 {
		t.Fatalf("framing overhead %.3f implausible", overhead)
	}
}

func TestJumboFramesReduceOverhead(t *testing.T) {
	std, jumbo := TenGbE(), JumboTenGbE()
	payload := int64(100 << 20)
	if jumbo.WireBytes(payload) >= std.WireBytes(payload) {
		t.Fatal("jumbo frames should reduce wire bytes")
	}
}

func TestSerializationTimeScale(t *testing.T) {
	l := TenGbE()
	// 1 GB at ~9.5 Gbps goodput: just under a second.
	tt := l.SerializationTime(1e9)
	if tt < 0.8 || tt > 1.0 {
		t.Fatalf("1 GB serialization %.3f s, want ~0.84", tt)
	}
}

func TestMessageTimeIncludesLatency(t *testing.T) {
	l := TenGbE()
	small := l.MessageTime(100)
	if small < l.LatencySec {
		t.Fatalf("message time %v below latency %v", small, l.LatencySec)
	}
	if diff := small - l.SerializationTime(100); math.Abs(diff-l.LatencySec) > 1e-12 {
		t.Fatalf("latency not added: %v", diff)
	}
}

func TestZeroBandwidthGuard(t *testing.T) {
	l := Link{MTU: 1500, HeaderBytes: 66}
	if !math.IsInf(l.SerializationTime(100), 1) {
		t.Fatal("zero bandwidth must yield +Inf time")
	}
}

func TestDegenerateMTU(t *testing.T) {
	l := Link{BandwidthBps: 1e9, MTU: 10, HeaderBytes: 66}
	// Header larger than MTU: payloadPerPacket floors at 1; must not panic
	// or divide by zero.
	if p := l.Packets(100); p != 100 {
		t.Fatalf("degenerate MTU packets = %d", p)
	}
}

// Property: wire time is monotone and superadditive-free (linear-ish) in
// payload size.
func TestQuickSerializationMonotone(t *testing.T) {
	l := TenGbE()
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return l.SerializationTime(x) <= l.SerializationTime(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 3, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
