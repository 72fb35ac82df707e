package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lcpio/internal/phases"
)

func baseConfig() Config {
	return Config{
		Nodes:        64,
		PerNodeBytes: 8 << 30,
		Codec:        "sz",
		RelEB:        1e-3,
		Ratio:        9,
	}
}

func TestDumpBasic(t *testing.T) {
	r, err := Dump(baseConfig(), phases.BaseRule())
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes != 64 || r.WallSeconds <= 0 || r.TotalJoules <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	if math.Abs(r.TotalJoules-64*r.NodeJoules) > 1e-6*r.TotalJoules {
		t.Fatalf("fleet energy %.1f != 64 * node %.1f", r.TotalJoules, r.NodeJoules)
	}
	if r.CompressedBytes >= r.PerNodeBytes {
		t.Fatalf("compression did not shrink: %d vs %d", r.CompressedBytes, r.PerNodeBytes)
	}
	if r.String() == "" {
		t.Fatal("empty String")
	}
}

func TestContentionSlowsTransit(t *testing.T) {
	small := baseConfig()
	small.Nodes = 4
	big := baseConfig()
	big.Nodes = 512
	rs, err := Dump(small, phases.BaseRule())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Dump(big, phases.BaseRule())
	if err != nil {
		t.Fatal(err)
	}
	// More writers on the same ingress: each node's transit takes longer.
	if rb.NodeTransitSeconds <= rs.NodeTransitSeconds {
		t.Fatalf("contention not modeled: %d nodes %.2fs vs %d nodes %.2fs",
			big.Nodes, rb.NodeTransitSeconds, small.Nodes, rs.NodeTransitSeconds)
	}
	// Compression time is unaffected by fleet size.
	if math.Abs(rb.NodeCompressSeconds-rs.NodeCompressSeconds) > 1e-9 {
		t.Fatalf("compression time depends on fleet size")
	}
}

func TestFewNodesCappedByNIC(t *testing.T) {
	cfg := baseConfig()
	cfg.Nodes = 1 // ingress/1 = 80 Gbps > NIC: the 10GbE NIC must cap it
	r, err := Dump(cfg, phases.BaseRule())
	if err != nil {
		t.Fatal(err)
	}
	// Transit of compressed bytes can't beat NIC line rate.
	bps := float64(r.CompressedBytes) * 8 / r.NodeTransitSeconds
	if bps > 10e9 {
		t.Fatalf("per-node rate %.2e exceeds NIC", bps)
	}
}

func TestCompressionBeatsRawDumpOnTime(t *testing.T) {
	cmp, err := Compare(baseConfig(), phases.PaperRule())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's premise (Liang et al. [3]): compressing before dumping
	// reduces wall time when the ratio is healthy.
	if cmp.CompressionSpeedup() <= 1 {
		t.Fatalf("compression speedup %.2f <= 1", cmp.CompressionSpeedup())
	}
	// Eqn 3 saves package energy on top of compression.
	if cmp.TuningEnergySavingsPct() <= 0 {
		t.Fatalf("tuning saved %.2f%%", cmp.TuningEnergySavingsPct())
	}
	if cmp.TuningEnergySavingsPct() > 30 {
		t.Fatalf("implausible tuning savings %.1f%%", cmp.TuningEnergySavingsPct())
	}
}

func TestCompressionSavesEnergyUnderContention(t *testing.T) {
	// At package-level accounting, raw dumping is cheap to *wait* on; the
	// energy win from compression appears once the shared ingress is
	// heavily contended and raw transit stretches to hundreds of seconds.
	cfg := baseConfig()
	cfg.Nodes = 512
	cmp, err := Compare(cfg, phases.BaseRule())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Compressed.TotalJoules >= cmp.Raw.TotalJoules {
		t.Fatalf("under 512-way contention compression must save energy: %.0f vs %.0f",
			cmp.Compressed.TotalJoules, cmp.Raw.TotalJoules)
	}
	if cmp.CompressionSpeedup() < 2 {
		t.Fatalf("contended speedup %.2f too small", cmp.CompressionSpeedup())
	}
}

func TestRawDumpSkipsCompression(t *testing.T) {
	cfg := baseConfig()
	cfg.Ratio = 0
	r, err := Dump(cfg, phases.BaseRule())
	if err != nil {
		t.Fatal(err)
	}
	if r.NodeCompressSeconds != 0 {
		t.Fatalf("raw dump spent %.2fs compressing", r.NodeCompressSeconds)
	}
	if r.CompressedBytes != r.PerNodeBytes {
		t.Fatalf("raw dump changed bytes: %d", r.CompressedBytes)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := baseConfig()
	cfg.Chip = "EPYC"
	if _, err := Dump(cfg, phases.BaseRule()); err == nil {
		t.Fatal("unknown chip accepted")
	}
	cfg = baseConfig()
	cfg.PerNodeBytes = -1
	if _, err := Dump(cfg, phases.BaseRule()); err == nil {
		t.Fatal("negative bytes accepted")
	}
	cfg = baseConfig()
	cfg.Codec = "lz4"
	if _, err := Dump(cfg, phases.BaseRule()); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestZeroValueDefaults(t *testing.T) {
	r, err := Dump(Config{PerNodeBytes: 1 << 30, Ratio: 4}, phases.Rule{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes != 1 {
		t.Fatalf("default nodes %d", r.Nodes)
	}
}

// Property: fleet energy scales linearly in node count (identical nodes,
// fixed per-client bandwidth share kept constant by scaling ingress).
func TestQuickEnergyLinearInNodes(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%63) + 2
		cfg := baseConfig()
		cfg.Nodes = n
		cfg.ServerIngressBps = float64(n) * 5e9 // constant 5 Gbps per client
		r, err := Dump(cfg, phases.BaseRule())
		if err != nil {
			return false
		}
		return math.Abs(r.TotalJoules-float64(n)*r.NodeJoules) < 1e-6*r.TotalJoules
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.2, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: a rule with fractions outside (0,1] is clamped onto the chip's
// P-state range by the pricer, so the dump still prices.
func TestQuickFractionClamping(t *testing.T) {
	f := func(frac float64) bool {
		r, err := Dump(baseConfig(), phases.Rule{CompressionFraction: frac, WritingFraction: frac})
		return err == nil && r.WallSeconds > 0 && !math.IsInf(r.TotalJoules, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFleetDump(b *testing.B) {
	cfg := baseConfig()
	for i := 0; i < b.N; i++ {
		if _, err := Dump(cfg, phases.BaseRule()); err != nil {
			b.Fatal(err)
		}
	}
}
