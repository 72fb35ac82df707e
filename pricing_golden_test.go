package lcpio

import (
	"fmt"
	"math"
	"net"
	"strconv"
	"testing"

	"lcpio/internal/advisor"
	"lcpio/internal/ckpt"
	"lcpio/internal/cluster"
	"lcpio/internal/compress"
	"lcpio/internal/core"
	"lcpio/internal/dedup"
	"lcpio/internal/dvfs"
	"lcpio/internal/netsim"
	"lcpio/internal/phases"
	"lcpio/internal/svc"
	"lcpio/internal/transit"
)

// goldenField is the deterministic smooth-plus-noise field every pricing
// site below is driven with.
func goldenField(elems, rank, field int, bound float64) []float32 {
	d := make([]float32, elems)
	rng := uint64(rank*31+field+1) * 0x9E3779B97F4A7C15
	for i := range d {
		rng = rng*6364136223846793005 + 1442695040888963407
		noise := (float64(rng>>11)/float64(1<<53))*2 - 1
		x := float64(i) / 96
		d[i] = float32(math.Sin(x+float64(rank))*math.Cos(x/7+float64(field)) + noise*8*bound)
	}
	return d
}

func goldenSet(name string, ranks int) ckpt.Set {
	dims := []int{64, 96}
	fields := []ckpt.Field{
		{Name: "pressure", Dims: dims, ErrorBound: 1e-3},
		{Name: "velocity_x", Dims: dims, ErrorBound: 1e-4},
	}
	for fi := range fields {
		for r := 0; r < ranks; r++ {
			fields[fi].Data = append(fields[fi].Data, goldenField(dims[0]*dims[1], r, fi, fields[fi].ErrorBound))
		}
	}
	return ckpt.Set{Name: name, Meta: "golden", Codec: "sz", Ranks: ranks, Fields: fields}
}

// goldenRows collects (name, value) pairs in a fixed order.
type goldenRows struct {
	names []string
	vals  []float64
}

func (g *goldenRows) add(name string, v float64) {
	g.names = append(g.names, name)
	g.vals = append(g.vals, v)
}

func (g *goldenRows) totals(prefix string, t phases.Totals) {
	g.add(prefix+".seconds", t.Seconds)
	g.add(prefix+".joules", t.Joules)
	g.add(prefix+".compute_j", t.ByClass[phases.Compute].Joules)
	g.add(prefix+".compression_j", t.ByClass[phases.Compression].Joules)
	g.add(prefix+".compression_s", t.ByClass[phases.Compression].Seconds)
	g.add(prefix+".writing_j", t.ByClass[phases.Writing].Joules)
	g.add(prefix+".writing_s", t.ByClass[phases.Writing].Seconds)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func goldenSvc(t *testing.T, g *goldenRows) {
	srv := svc.NewServer(svc.Config{})
	for _, tc := range []svc.TenantConfig{{Name: "a"}, {Name: "tight", EnergyBudgetJoules: 1e-9}} {
		if err := srv.AddTenant(tc); err != nil {
			t.Fatal(err)
		}
	}
	cEnd, sEnd := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.ServeConn(sEnd) }()
	defer func() {
		cEnd.Close()
		sEnd.Close()
		<-done
	}()
	cl := svc.NewClient(cEnd)
	set := goldenSet("golden-svc", 2)

	// The open-time projection rides back on an energy reject.
	_, err := cl.Dump("tight", set, svc.DumpOptions{Workers: 2, ProjectedRatio: 6})
	rej, ok := svc.IsReject(err)
	if !ok {
		t.Fatalf("want energy reject, got %v", err)
	}
	g.add("svc.open.projected_j", rej.ProjectedJoules)

	res, err := cl.Dump("a", set, svc.DumpOptions{Workers: 2, ProjectedRatio: 6})
	if err != nil {
		t.Fatal(err)
	}
	g.add("svc.close.compress_j", res.CompressJoules)
	g.add("svc.close.transit_j", res.TransitJoules)
	g.add("svc.close.joules", res.Joules)
	g.add("svc.close.sim_s", res.SimSeconds)
	rr, err := cl.Restore("golden-svc")
	if err != nil {
		t.Fatal(err)
	}
	g.add("svc.restore.read_j", rr.ReadJoules)
}

func goldenCkpt(t *testing.T, g *goldenRows) {
	opts := ckpt.CampaignOptions{Iterations: 3, ComputeSeconds: 5}
	report := func(prefix string, r *ckpt.WriteResult, o ckpt.CampaignOptions) {
		cmp, err := r.EnergyReport(o)
		if err != nil {
			t.Fatal(err)
		}
		g.totals(prefix+".base", cmp.Base)
		g.totals(prefix+".tuned", cmp.Tuned)
	}
	set := goldenSet("golden-full", 4)
	baseMed := ckpt.NewMemMedium()
	plain, err := ckpt.Write(baseMed, set, ckpt.WriteOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	report("ckpt.plain", plain, opts)
	restart := opts
	restart.WithRestore = true
	restart.Chip = dvfs.Skylake()
	report("ckpt.plain.restart.skylake", plain, restart)
	pe, err := plain.ParityEnergy(opts)
	if err != nil {
		t.Fatal(err)
	}
	g.add("ckpt.plain.parity.breakeven", pe.BreakEvenLossProb)

	par, err := ckpt.Write(ckpt.NewMemMedium(), set, ckpt.WriteOptions{Workers: 2, ParityRanks: 2})
	if err != nil {
		t.Fatal(err)
	}
	report("ckpt.parity", par, opts)
	restart.Chip = nil
	report("ckpt.parity.restart", par, restart)
	pe, err = par.ParityEnergy(opts)
	if err != nil {
		t.Fatal(err)
	}
	g.add("ckpt.parity.parity_j", pe.ParityJoules)
	g.add("ckpt.parity.parity_s", pe.ParitySeconds)
	g.add("ckpt.parity.reconstruct_j", pe.ReconstructJoules)
	g.add("ckpt.parity.redump_j", pe.RedumpJoules)
	g.add("ckpt.parity.breakeven", pe.BreakEvenLossProb)

	base, err := ckpt.OpenBase(baseMed, nil, dedup.Params{MinSize: 256, AvgSize: 1024, MaxSize: 4096},
		ckpt.RestoreOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	next := goldenSet("golden-delta", 4)
	for fi := range next.Fields {
		for r, d := range next.Fields[fi].Data {
			n := len(d) / 10
			start := (r * 37) % (len(d) - n + 1)
			for i := start; i < start+n; i++ {
				d[i] += float32(10 * next.Fields[fi].ErrorBound)
			}
		}
	}
	delta, err := ckpt.Write(ckpt.NewMemMedium(), next, ckpt.WriteOptions{Workers: 2, ParityRanks: 1, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	report("ckpt.delta", delta, opts)
	de, err := delta.DeltaEnergy(plain, opts)
	if err != nil {
		t.Fatal(err)
	}
	g.add("ckpt.delta.churn", de.ChurnRate)
	g.add("ckpt.delta.hash_j", de.HashJoules)
	g.add("ckpt.delta.delta_j", de.DeltaJoules)
	g.add("ckpt.delta.full_j", de.FullJoules)
	g.add("ckpt.delta.net_saved_j", de.NetSavedJoules)
	g.add("ckpt.delta.breakeven", de.BreakEvenChurn)
}

func goldenAdvisor(t *testing.T, g *goldenRows) {
	dims := []int{64, 96}
	data := goldenField(dims[0]*dims[1], 0, 0, 1e-3)
	pts, err := advisor.WorkerEnergies("Skylake", "zfp", 32<<30, 1e-4, 5.5, 1.9, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		g.add(fmt.Sprintf("advisor.workers[%d].seconds", p.Cores), p.Seconds)
		g.add(fmt.Sprintf("advisor.workers[%d].joules", p.Cores), p.Joules)
	}

	// The search a command reaches: the default controller, sketch-driven
	// (Decide) and measured (ExhaustiveSweep) on the same field, free, under
	// a binding deadline, and at a floor where the hedge costs energy.
	plain, err := advisor.New(advisor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	psk, err := plain.Sketch(data, dims)
	if err != nil {
		t.Fatal(err)
	}
	for _, rc := range []struct {
		name string
		req  advisor.Request
	}{
		{"free", advisor.Request{RawBytes: 8 << 30, MinPSNR: 60}},
		{"deadline", advisor.Request{RawBytes: 8 << 30, MinPSNR: 60, DeadlineSeconds: 24}},
		{"hedged", advisor.Request{RawBytes: 8 << 30, MinPSNR: 33}},
	} {
		dec, err := plain.Decide(psk, rc.req)
		if err != nil {
			t.Fatalf("%s: %v", rc.name, err)
		}
		p := "advisor.decide." + rc.name
		g.add(p+".codec_len", float64(len(dec.Codec)))
		g.add(p+".rel_eb", dec.RelEB)
		g.add(p+".workers", float64(dec.Workers))
		g.add(p+".compress_ghz", dec.CompressGHz)
		g.add(p+".write_ghz", dec.WriteGHz)
		g.add(p+".energy_j", dec.EnergyJ)
		g.add(p+".seconds", dec.Seconds)
		g.add(p+".compress_j", dec.CompressJoules)
		g.add(p+".write_j", dec.WriteJoules)
		for i, c := range dec.Table {
			q := fmt.Sprintf("%s.table[%d]", p, i)
			g.add(q+".codec_len", float64(len(c.Codec)))
			g.add(q+".rel_eb", c.RelEB)
			g.add(q+".feasible", b2f(c.Feasible))
			g.add(q+".workers", float64(c.Workers))
			g.add(q+".compress_ghz", c.CompressGHz)
			g.add(q+".write_ghz", c.WriteGHz)
			g.add(q+".energy_j", c.EnergyJ)
			g.add(q+".seconds", c.Seconds)
		}
		truth, err := plain.ExhaustiveSweep(data, dims, rc.req)
		if err != nil {
			t.Fatalf("%s: %v", rc.name, err)
		}
		p = "advisor.measured." + rc.name
		g.add(p+".best.codec_len", float64(len(truth.Codec)))
		g.add(p+".best.rel_eb", truth.RelEB)
		g.add(p+".best.energy_j", truth.EnergyJ)
		// The rows were recorded in search order (codec-major), before the
		// measured table was sorted like Decide's.
		for _, codec := range []string{"sz", "zfp"} {
			for _, eb := range compress.PaperErrorBounds {
				for _, e := range truth.Table {
					if e.Codec != codec || e.RelEB != eb {
						continue
					}
					q := fmt.Sprintf("%s.%s@%g", p, e.Codec, e.RelEB)
					g.add(q+".ratio", e.Pred.Ratio)
					g.add(q+".psnr", e.Pred.PSNR)
					g.add(q+".workers", float64(e.Workers))
					g.add(q+".compress_ghz", e.CompressGHz)
					g.add(q+".write_ghz", e.WriteGHz)
					g.add(q+".energy_j", e.EnergyJ)
					g.add(q+".seconds", e.Seconds)
				}
			}
		}
		regret, err := plain.Regret(dec, truth)
		if err != nil {
			t.Fatalf("%s: %v", rc.name, err)
		}
		g.add(p+".regret", regret)
	}
}

func goldenTransit(t *testing.T, g *goldenRows) {
	link, err := netsim.Custom("golden-lan", 5e8, 2e-4, 9000, 66)
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{64, 96}
	e, _, err := transit.BreakEven(link, "zfp", 1e-3, goldenField(dims[0]*dims[1], 0, 1, 1e-3), dims)
	if err != nil {
		t.Fatal(err)
	}
	g.add("transit.breakeven_bps", e.BreakEvenBps)
	g.add("transit.energy_breakeven_bps", e.EnergyBreakEvenBps)
}

func goldenCluster(t *testing.T, g *goldenRows) {
	// What `lcpio cluster` runs: the three-way comparison at its defaults,
	// and on the other chip.
	for _, chip := range []string{"Broadwell", "Skylake"} {
		cmp, err := cluster.Compare(cluster.Config{Nodes: 256, Chip: chip, PerNodeBytes: 64 << 30,
			Codec: "sz", RelEB: 1e-3, Ratio: 9, ServerIngressBps: 100e9}, phases.PaperRule())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			name string
			res  cluster.Result
		}{{"raw", cmp.Raw}, {"compressed", cmp.Compressed}, {"tuned", cmp.Tuned}} {
			p := "cluster.compare." + chip + "." + r.name
			g.add(p+".compressed_bytes", float64(r.res.CompressedBytes))
			g.add(p+".effective_bps", r.res.EffectiveBps)
			g.add(p+".compress_s", r.res.NodeCompressSeconds)
			g.add(p+".transit_s", r.res.NodeTransitSeconds)
			g.add(p+".node_j", r.res.NodeJoules)
			g.add(p+".wall_s", r.res.WallSeconds)
			g.add(p+".total_j", r.res.TotalJoules)
		}
	}
}

func goldenCore(t *testing.T, g *goldenRows) {
	// The rows were recorded at two of the paper's four bounds, 1e-2 and
	// 1e-4 (a study prices each bound on its own): results 1 and 3.
	cfg := core.Config{Seed: 3, RatioElems: 1 << 13, Workers: 2}
	dcfg := core.DumpConfig{TotalBytes: 16 << 30, Chip: "Skylake", Codec: "zfp", Dataset: "HACC"}
	dump, err := core.RunDataDump(cfg, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range []core.DumpResult{dump[1], dump[3]} {
		p := fmt.Sprintf("core.dump[%d]", i)
		g.add(p+".base_compress_j", r.BaseCompressJ)
		g.add(p+".base_transit_j", r.BaseTransitJ)
		g.add(p+".tuned_compress_j", r.TunedCompressJ)
		g.add(p+".tuned_transit_j", r.TunedTransitJ)
		g.add(p+".base_s", r.BaseSeconds)
		g.add(p+".tuned_s", r.TunedSeconds)
	}
	load, err := core.RunDataLoad(cfg, core.DumpConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range []core.LoadResult{load[1], load[3]} {
		p := fmt.Sprintf("core.load[%d]", i)
		g.add(p+".base_read_j", r.BaseReadJ)
		g.add(p+".base_decompress_j", r.BaseDecompressJ)
		g.add(p+".tuned_read_j", r.TunedReadJ)
		g.add(p+".tuned_decompress_j", r.TunedDecompressJ)
		g.add(p+".base_s", r.BaseSeconds)
		g.add(p+".tuned_s", r.TunedSeconds)
	}
	cores, err := core.EnergyVsCores(cfg, "Broadwell", "sz", 4<<30, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cores {
		g.add(fmt.Sprintf("core.cores[%d].joules", c.Cores), c.Joules)
		g.add(fmt.Sprintf("core.cores[%d].seconds", c.Cores), c.Seconds)
	}
}

// TestPricingGolden is the characterization test of the one-pricer
// refactor: every Eqn 2 pricing site, driven with fixed inputs, must keep
// producing the exact float64 recorded from the hand-written arithmetic it
// replaced. A mismatch is a pricing behaviour change, never noise — every
// value here is deterministic.
func TestPricingGolden(t *testing.T) {
	var g goldenRows
	goldenSvc(t, &g)
	goldenCkpt(t, &g)
	goldenAdvisor(t, &g)
	goldenTransit(t, &g)
	goldenCluster(t, &g)
	goldenCore(t, &g)

	if len(g.vals) != len(pricingGolden) {
		t.Errorf("collected %d rows, golden table has %d", len(g.vals), len(pricingGolden))
	}
	bad := 0
	for i, v := range g.vals {
		if i < len(pricingGolden) && pricingGolden[i].name == g.names[i] &&
			math.Float64bits(pricingGolden[i].want) == math.Float64bits(v) {
			continue
		}
		bad++
		t.Logf("\t{%q, %s},", g.names[i], goldenLiteral(v))
	}
	if bad > 0 {
		t.Errorf("%d of %d rows differ from the recorded parent values (rows logged above)", bad, len(g.vals))
	}
}

func goldenLiteral(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "math.Inf(1)"
	case math.IsInf(v, -1):
		return "math.Inf(-1)"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
