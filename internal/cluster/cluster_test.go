package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func baseConfig() Config {
	return Config{
		Nodes:        64,
		PerNodeBytes: 8 << 30,
		Codec:        "sz",
		RelEB:        1e-3,
		Ratio:        9,
		Seed:         1,
	}
}

func TestDumpBasic(t *testing.T) {
	r, err := Dump(baseConfig())
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
	rs, err := Dump(small)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Dump(big)
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
	r, err := Dump(cfg)
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
	cmp, err := Compare(baseConfig(), 0.875, 0.85)
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
	cmp, err := Compare(cfg, 1, 1)
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
	r, err := Dump(cfg)
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

func TestTransmitHours(t *testing.T) {
	// The introduction's arithmetic: HACC snapshots at 500 GB/s ~ 10 h.
	h := TransmitHours(HACCSnapshotBytes, 500e9)
	if math.Abs(h-10) > 1e-9 {
		t.Fatalf("HACC transmit hours %.3f, want 10", h)
	}
	if !math.IsInf(TransmitHours(100, 0), 1) {
		t.Fatal("zero bandwidth must be +Inf")
	}
	// Compression at ratio 9 cuts it to ~1.1 h.
	compressed := TransmitHours(HACCSnapshotBytes/9, 500e9)
	if compressed >= h/8 {
		t.Fatalf("compressed transmit %.2f h not ~9x better", compressed)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := baseConfig()
	cfg.Chip = "EPYC"
	if _, err := Dump(cfg); err == nil {
		t.Fatal("unknown chip accepted")
	}
	cfg = baseConfig()
	cfg.PerNodeBytes = -1
	if _, err := Dump(cfg); err == nil {
		t.Fatal("negative bytes accepted")
	}
	cfg = baseConfig()
	cfg.Codec = "lz4"
	if _, err := Dump(cfg); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestZeroValueDefaults(t *testing.T) {
	r, err := Dump(Config{PerNodeBytes: 1 << 30, Ratio: 4})
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
		r, err := Dump(cfg)
		if err != nil {
			return false
		}
		return math.Abs(r.TotalJoules-float64(n)*r.NodeJoules) < 1e-6*r.TotalJoules
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.2, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: tuning fractions outside (0,1] fall back to base clock.
func TestQuickFractionClamping(t *testing.T) {
	f := func(frac float64) bool {
		cfg := baseConfig()
		cfg.CompressionFraction = frac
		cfg.WritingFraction = frac
		r, err := Dump(cfg)
		return err == nil && r.WallSeconds > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFleetDump(b *testing.B) {
	cfg := baseConfig()
	for i := 0; i < b.N; i++ {
		if _, err := Dump(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Regression: checkpoint-set framing must stay a small tax. For a
// representative fleet layout (8 fields x 64 ranks per node over multi-GiB
// payloads) the manifest + chunk-table overhead is pinned under 2% of the
// wire bytes, and the model accounts for it explicitly.
func TestCkptOverheadUnderTwoPercent(t *testing.T) {
	cfg := baseConfig()
	cfg.CkptFields = 8
	cfg.CkptRanksPerNode = 64
	r, err := Dump(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.CkptOverheadBytes <= 0 {
		t.Fatal("checkpoint layout set but no overhead accounted")
	}
	if frac := float64(r.CkptOverheadBytes) / float64(r.WireBytes()); frac >= 0.02 {
		t.Fatalf("framing overhead %.4f%% of wire bytes, want < 2%%", 100*frac)
	}
	plain, err := Dump(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if plain.CkptOverheadBytes != 0 {
		t.Fatal("plain dump should carry no checkpoint framing")
	}
	if r.NodeTransitSeconds <= plain.NodeTransitSeconds {
		t.Fatal("framing bytes should lengthen the transit phase")
	}
	// Even chunk-heavy layouts (many ranks, many fields) stay bounded for
	// exascale-sized payloads.
	cfg.CkptFields = 32
	cfg.CkptRanksPerNode = 1024
	heavy, err := Dump(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(heavy.CkptOverheadBytes) / float64(heavy.WireBytes()); frac >= 0.02 {
		t.Fatalf("heavy layout overhead %.4f%%, want < 2%%", 100*frac)
	}
}

// TestSampledCkptPipelineCrossCheck pins the measured overhead path to the
// real writer: the fleet model's framing bytes must equal what a ckpt.Write
// of the same geometry actually emits, and the parity traffic must scale by
// the writer's own parity-to-payload ratio.
func TestSampledCkptPipelineCrossCheck(t *testing.T) {
	cfg := baseConfig()
	cfg.CkptFields = 3
	cfg.CkptRanksPerNode = 6
	cfg.CkptParityRanks = 2
	r, err := Dump(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.CkptMeasured {
		t.Fatal("small geometry should take the measured ckpt.Write path")
	}
	if r.CkptOverheadBytes <= 0 || r.CkptParityBytes <= 0 {
		t.Fatalf("measured overheads not positive: %+v", r)
	}

	// Independent probe through the writer, same geometry.
	framing, parityFrac, err := sampleCkptOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.CkptOverheadBytes != framing {
		t.Fatalf("fleet framing %d != writer framing %d", r.CkptOverheadBytes, framing)
	}
	want := int64(parityFrac * float64(r.CompressedBytes))
	if r.CkptParityBytes != want {
		t.Fatalf("fleet parity %d != scaled writer parity %d", r.CkptParityBytes, want)
	}
	// The writer's parity ratio for m=2 over 6 ranks is at least m/ranks of
	// the payload (stripes use the max chunk, so usually a bit more).
	if parityFrac < 2.0/6 {
		t.Fatalf("parity fraction %.4f below m/ranks", parityFrac)
	}

	// Parity traffic lengthens the transit phase versus the same layout
	// without parity.
	noPar := cfg
	noPar.CkptParityRanks = 0
	rp, err := Dump(noPar)
	if err != nil {
		t.Fatal(err)
	}
	if rp.CkptParityBytes != 0 {
		t.Fatalf("parity accounted without CkptParityRanks: %+v", rp)
	}
	if r.NodeTransitSeconds <= rp.NodeTransitSeconds {
		t.Fatal("parity bytes should lengthen the transit phase")
	}
	if r.WireBytes() != r.CompressedBytes+r.CkptOverheadBytes+r.CkptParityBytes {
		t.Fatalf("WireBytes inconsistent: %+v", r)
	}
}

func TestLargeGeometryFallsBackToAnalytic(t *testing.T) {
	cfg := baseConfig()
	cfg.CkptFields = 32
	cfg.CkptRanksPerNode = 1024
	cfg.CkptParityRanks = 0
	r, err := Dump(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.CkptMeasured {
		t.Fatal("oversized geometry should use the analytic estimate")
	}
	if r.CkptOverheadBytes <= 0 {
		t.Fatal("analytic fallback produced no framing estimate")
	}
}

func TestParityConfigValidation(t *testing.T) {
	cfg := baseConfig()
	cfg.CkptParityRanks = -1
	if _, err := Dump(cfg); err == nil {
		t.Fatal("accepted negative parity ranks")
	}
	cfg = baseConfig()
	cfg.CkptParityRanks = 2 // no checkpoint layout
	if _, err := Dump(cfg); err == nil {
		t.Fatal("accepted parity without checkpoint layout")
	}
}

func TestChurnRateShrinksWire(t *testing.T) {
	cfg := baseConfig()
	cfg.CkptFields = 4
	cfg.CkptRanksPerNode = 8
	fullR, err := Dump(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CkptChurnRate = 0.1
	deltaR, err := Dump(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !deltaR.CkptMeasured {
		t.Fatal("small geometry with churn should sample the real dedup pipeline")
	}
	if deltaR.CkptDedupRatio < 0.5 {
		t.Fatalf("dedup ratio %.3f at 10%% churn, want >= 0.5", deltaR.CkptDedupRatio)
	}
	if deltaR.WireBytes() >= fullR.WireBytes()/2 {
		t.Fatalf("incremental dump wire %d not well below full %d",
			deltaR.WireBytes(), fullR.WireBytes())
	}
	if deltaR.NodeDedupSeconds <= 0 {
		t.Fatal("incremental dump paid no dedup pass")
	}
	if deltaR.WallSeconds >= fullR.WallSeconds {
		t.Fatal("incremental dump should be faster despite the dedup pass")
	}
}

func TestChurnRateAnalyticFallback(t *testing.T) {
	cfg := baseConfig()
	cfg.CkptFields = 32
	cfg.CkptRanksPerNode = 1024
	cfg.CkptChurnRate = 0.2
	r, err := Dump(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.CkptMeasured {
		t.Fatal("oversized geometry should use the analytic estimate")
	}
	if math.Abs(r.CkptDedupRatio-0.8) > 1e-9 {
		t.Fatalf("analytic dedup ratio %.3f, want 0.8", r.CkptDedupRatio)
	}
	if r.NodeDedupSeconds <= 0 {
		t.Fatal("analytic path skipped the dedup pass cost")
	}
}

func TestChurnRateValidation(t *testing.T) {
	cfg := baseConfig()
	cfg.CkptChurnRate = 0.1 // no checkpoint layout
	if _, err := Dump(cfg); err == nil {
		t.Fatal("accepted churn rate without checkpoint layout")
	}
	cfg = baseConfig()
	cfg.CkptFields, cfg.CkptRanksPerNode = 2, 2
	cfg.CkptChurnRate = 1.5
	if _, err := Dump(cfg); err == nil {
		t.Fatal("accepted churn rate >= 1")
	}
	cfg.CkptChurnRate = -0.1
	if _, err := Dump(cfg); err == nil {
		t.Fatal("accepted negative churn rate")
	}
}

func TestWireCodecShrinksRawDumpWire(t *testing.T) {
	raw := baseConfig()
	raw.Ratio = 0
	// 512 writers sharing 80 Gbps leave ~156 Mbps per client — far below
	// the wire codec's break-even, so compressing in transit must pay.
	raw.Nodes = 512
	rres, err := Dump(raw)
	if err != nil {
		t.Fatal(err)
	}
	wired := raw
	wired.WireCodec, wired.WireRelEB, wired.WireRatio = "sz", 1e-3, 6
	wres, err := Dump(wired)
	if err != nil {
		t.Fatal(err)
	}
	if !wres.WireCompressed || rres.WireCompressed {
		t.Fatalf("wire-compressed flags wrong: %v / %v", wres.WireCompressed, rres.WireCompressed)
	}
	if want := rres.CompressedBytes / 6; wres.CompressedBytes != want {
		t.Fatalf("wire bytes %d, want %d", wres.CompressedBytes, want)
	}
	if wres.NodeCompressSeconds <= 0 {
		t.Fatal("wire codec cost no compute")
	}
	if wres.WallSeconds >= rres.WallSeconds {
		t.Fatalf("wire codec did not pay: %.1f s vs raw %.1f s", wres.WallSeconds, rres.WallSeconds)
	}
	if be := wres.WireBreakEvenBps; be <= 0 || math.IsInf(be, 0) {
		t.Fatalf("degenerate wire break-even %g", be)
	}
	// The contended per-client link must actually sit below break-even for
	// the observed win to be consistent with the economics.
	if perClient := 80e9 / 512.0; perClient >= wres.WireBreakEvenBps {
		t.Fatalf("per-client %g bps above break-even %g yet compression won", perClient, wres.WireBreakEvenBps)
	}
}

func TestWireCodecValidation(t *testing.T) {
	cfg := baseConfig() // Ratio 9
	cfg.WireCodec, cfg.WireRatio = "sz", 6
	if _, err := Dump(cfg); err == nil {
		t.Fatal("WireCodec on an already-compressed dump accepted")
	}
	cfg.Ratio = 0
	cfg.WireRatio = 1
	if _, err := Dump(cfg); err == nil {
		t.Fatal("WireRatio <= 1 accepted")
	}
	cfg.WireRatio = 6
	cfg.WireCodec = "nope"
	if _, err := Dump(cfg); err == nil {
		t.Fatal("unknown wire codec accepted")
	}
}

func TestAdvisedFleetDump(t *testing.T) {
	cfg := baseConfig()
	cfg.Codec, cfg.RelEB, cfg.Ratio = "", 0, 0 // advisor's to pick
	cfg.Advise = true
	r, err := Dump(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Advised || r.AdvisedCodec == "" {
		t.Fatalf("advised dump did not record its pick: %+v", r)
	}
	if !(r.AdvisedRelEB > 0) || r.AdvisedRelEB > 1 {
		t.Fatalf("advised bound %g outside (0,1]", r.AdvisedRelEB)
	}
	if r.AdvisedRatio <= 1 {
		t.Fatalf("advisor projected no compression: ratio %g", r.AdvisedRatio)
	}
	if r.AdvisedCompressGHz <= 0 || r.AdvisedWriteGHz <= 0 {
		t.Fatalf("advisor left clocks unset: %g / %g GHz", r.AdvisedCompressGHz, r.AdvisedWriteGHz)
	}
	if r.CompressedBytes >= r.PerNodeBytes {
		t.Fatalf("advised dump shipped raw: %d of %d B", r.CompressedBytes, r.PerNodeBytes)
	}
	if r.TotalJoules <= 0 || r.WallSeconds <= 0 {
		t.Fatalf("degenerate advised result: %+v", r)
	}

	// Tightening the floor to zfp-only territory must flip the pick.
	strict := cfg
	strict.AdviseMinPSNR = 95
	rs, err := Dump(strict)
	if err != nil {
		t.Fatal(err)
	}
	if rs.AdvisedCodec != "zfp" {
		t.Fatalf("95 dB floor picked %s; only zfp clears it", rs.AdvisedCodec)
	}

	// The advisor owns the storage codec; wire compression cannot stack.
	bad := cfg
	bad.WireCodec, bad.WireRatio = "sz", 6
	if _, err := Dump(bad); err == nil {
		t.Fatal("Advise combined with WireCodec accepted")
	}
}
