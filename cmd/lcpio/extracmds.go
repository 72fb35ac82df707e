package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lcpio/internal/advisor"
	"lcpio/internal/cluster"
	"lcpio/internal/core"
	"lcpio/internal/fpdata"
	"lcpio/internal/perf"
	"lcpio/internal/phases"
	"lcpio/internal/tables"
)

func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	nodes := fs.Int("nodes", 256, "fleet size")
	perNodeGB := fs.Int64("per-node-gb", 64, "uncompressed bytes per node (GiB)")
	ingress := fs.Float64("ingress-gbps", 100, "shared storage ingress (Gbps)")
	ratio := fs.Float64("ratio", 9, "assumed compression ratio")
	chip := fs.String("chip", "Broadwell", "chip")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodes < 1 {
		return fmt.Errorf("-nodes must be at least 1, got %d", *nodes)
	}
	if !(*ingress > 0) {
		return fmt.Errorf("-ingress-gbps must be positive, got %g", *ingress)
	}
	cmp, err := cluster.Compare(cluster.Config{
		Nodes:            *nodes,
		PerNodeBytes:     *perNodeGB << 30,
		Codec:            "sz",
		RelEB:            1e-3,
		Ratio:            *ratio,
		ServerIngressBps: *ingress * 1e9,
		Chip:             *chip,
	}, phases.PaperRule())
	if err != nil {
		return err
	}
	row := func(name string, r cluster.Result) []string {
		return []string{name, fmt.Sprintf("%.0f s", r.WallSeconds),
			tables.FormatSI(r.NodeJoules, "J"), tables.FormatSI(r.TotalJoules, "J")}
	}
	fmt.Print(tables.Render(
		fmt.Sprintf("%d-node dump on %s, %d GiB/node, %.0f Gbps shared ingress",
			*nodes, *chip, *perNodeGB, *ingress),
		[]string{"schedule", "wall", "node energy", "fleet energy"},
		[][]string{
			row("raw", cmp.Raw),
			row("compressed", cmp.Compressed),
			row("compressed+tuned", cmp.Tuned),
		}))
	fmt.Printf("\ncompression speedup %.2fx; tuning saves %.1f%% fleet energy on top\n",
		cmp.CompressionSpeedup(), cmp.TuningEnergySavingsPct())
	return nil
}

func cmdLoad(args []string) error {
	cfg, err := experimentFlags("load", args)
	if err != nil {
		return err
	}
	results, err := core.RunDataLoad(cfg)
	if err != nil {
		return err
	}
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		rows = append(rows, []string{
			fmt.Sprintf("%g", r.EB),
			fmt.Sprintf("%.1f", r.Ratio),
			tables.FormatBytes(r.CompressedBytes),
			tables.FormatSI(r.BaseTotalJ(), "J"),
			tables.FormatSI(r.TunedTotalJ(), "J"),
			fmt.Sprintf("%.1f%%", r.SavedPct()),
		})
	}
	fmt.Print(tables.Render(
		"Read path (extension): fetch 512 GiB dump from NFS + decompress, base vs tuned",
		[]string{"eb", "ratio", "compressed", "base", "tuned", "saved%"}, rows))
	return nil
}

// adviseScale finds the coarsest generation scale whose field stays at or
// under targetElems, mirroring fpdata's dimension-scaling rules.
func adviseScale(dims []int, targetElems int) int {
	for scale := 1; ; scale++ {
		n := 1
		for i, d := range dims {
			v := d / scale
			if v < 1 {
				v = 1
			}
			if i == len(dims)-1 && v < 16 && d >= 16 {
				v = 16
			}
			n *= v
		}
		if n <= targetElems || scale >= 1<<12 {
			return scale
		}
	}
}

func cmdAdvise(args []string) error {
	fs := flag.NewFlagSet("advise", flag.ContinueOnError)
	minPSNR := fs.Float64("min-psnr", 60, "quality floor in dB")
	gb := fs.Int64("gb", 512, "data volume to dump (GiB)")
	deadline := fs.Float64("deadline", 0, "dump deadline in seconds (0 = none)")
	chip := fs.String("chip", "Broadwell", "chip")
	dataset := fs.String("dataset", "NYX", "dataset whose statistics to use")
	field := fs.String("field", "", "field within the dataset (default: first)")
	elems := fs.Int("elems", 1<<17, "sketch probe field size in elements")
	seed := fs.Int64("seed", 1, "seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gb < 1 {
		return fmt.Errorf("-gb must be at least 1, got %d", *gb)
	}
	ctrl, err := advisor.New(advisor.Config{Chip: *chip})
	if err != nil {
		return err
	}
	spec, err := fpdata.Lookup(*dataset, *field)
	if err != nil {
		return err
	}
	f := fpdata.Generate(spec, adviseScale(spec.Dims, *elems), *seed)
	sk, err := ctrl.Sketch(f.Data, f.Dims)
	if err != nil {
		return err
	}
	req := advisor.Request{
		RawBytes: *gb << 30, DeadlineSeconds: *deadline, MinPSNR: *minPSNR,
	}
	dec, err := ctrl.Decide(sk, req)
	if err != nil {
		fmt.Printf("no qualifying configuration: %v\n", err)
		return nil
	}
	rows := make([][]string, 0, len(dec.Table))
	for _, cand := range dec.Table {
		note := cand.Reason
		if cand.Feasible {
			note = "ok"
		}
		row := []string{
			cand.Codec, fmt.Sprintf("%g", cand.RelEB),
			fmt.Sprintf("%.1f", cand.Pred.PSNR), fmt.Sprintf("%.2f", cand.Pred.Ratio),
		}
		if cand.Feasible {
			row = append(row,
				fmt.Sprintf("%d", cand.Workers),
				fmt.Sprintf("%.2f/%.2f", cand.CompressGHz, cand.WriteGHz),
				tables.FormatSI(cand.EnergyJ, "J"), fmt.Sprintf("%.0f s", cand.Seconds), note)
		} else {
			row = append(row, "-", "-", "-", "-", note)
		}
		rows = append(rows, row)
	}
	fmt.Print(tables.Render(
		fmt.Sprintf("sketch-driven advice for dumping %d GiB of %s/%s on %s (floor %.0f dB)",
			*gb, spec.Dataset, spec.Field, *chip, *minPSNR),
		[]string{"codec", "eb", "PSNR dB", "ratio", "workers", "GHz c/w", "energy", "time", "note"},
		rows))
	fmt.Printf("\npick: %s at eb=%g, %d workers, %.2f/%.2f GHz — %s predicted, %s\n",
		dec.Codec, dec.RelEB, dec.Workers, dec.CompressGHz, dec.WriteGHz,
		tables.FormatSI(dec.EnergyJ, "J"), fmt.Sprintf("%.0f s", dec.Seconds))
	opt, err := ctrl.ExhaustiveSweep(f.Data, f.Dims, req)
	if err != nil {
		return err
	}
	reg, err := ctrl.Regret(dec, opt)
	if err != nil {
		return err
	}
	fmt.Printf("exhaustive optimum: %s at eb=%g — %s; sketch regret %.2f%%\n",
		opt.Codec, opt.RelEB, tables.FormatSI(opt.EnergyJ, "J"), 100*reg)
	return nil
}

func cmdSweepCSV(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed")
	reps := fs.Int("reps", 10, "repetitions per frequency")
	out := fs.String("out", "", "output CSV file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := core.Config{Seed: *seed, Repetitions: *reps, RatioElems: 1 << 15}
	cs, err := core.RunCompressionStudy(cfg)
	if err != nil {
		return err
	}
	ts, err := core.RunTransitStudy(cfg)
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return perf.WriteCSV(w, append(cs.Sweeps(), ts.Sweeps()...)...)
}

func cmdGenerations(args []string) error {
	cfg, err := experimentFlags("generations", args)
	if err != nil {
		return err
	}
	if len(cfg.Chips) == 0 {
		cfg.Chips = []string{"Broadwell", "Skylake", "CascadeLake"}
	}
	st, err := studies(cfg)
	if err != nil {
		return err
	}
	cs := st[compression]
	chips := cs.ByChip()
	rows, err := cs.Fit(chips)
	if err != nil {
		return err
	}
	fmt.Print(modelTable(
		"Per-chip compression power models across CPU generations (paper's future-work question)",
		rows))
	rec := phases.PaperRule()
	fmt.Printf("\nEqn 3 applied per chip (compression %g f_max, writing %g f_max):\n",
		rec.CompressionFraction, rec.WritingFraction)
	for _, chip := range chips {
		s, err := cs.Select(chip).Savings(rec.CompressionFraction)
		if err != nil {
			return err
		}
		fmt.Printf("  %-12s compression: %v\n", chip.Name, s)
	}
	return nil
}

func cmdEnergy(args []string) error {
	cfg, err := experimentFlags("energy", args)
	if err != nil {
		return err
	}
	st, err := studies(cfg)
	if err != nil {
		return err
	}
	cSeries, err := st[compression].Characteristics(core.ScaledEnergy)
	if err != nil {
		return err
	}
	tSeries, err := st[writing].Characteristics(core.ScaledEnergy)
	if err != nil {
		return err
	}
	fmt.Print(tables.Plot("Scaled energy vs frequency — compression (interior minimum justifies Eqn 3)",
		"frequency (GHz)", "E/E(fmax)", plotSeries(cSeries)))
	fmt.Println()
	fmt.Print(tables.Plot("Scaled energy vs frequency — data writing",
		"frequency (GHz)", "E/E(fmax)", plotSeries(tSeries)))
	for _, s := range append(cSeries, tSeries...) {
		f, y := s.Min()
		fmt.Printf("  %-22s energy minimum %.3f at %.2f GHz\n", s.Label, y, f)
	}
	return nil
}

func cmdCores(args []string) error {
	fs := flag.NewFlagSet("cores", flag.ContinueOnError)
	chip := fs.String("chip", "Skylake", "chip")
	codec := fs.String("codec", "sz", "codec")
	gb := fs.Int64("gb", 64, "data volume (GiB)")
	maxCores := fs.Int("max", 8, "worker counts to evaluate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The paper's reference workload (rel 1e-3, ratio 9) at the Eqn 3
	// compression clock.
	samples, err := advisor.WorkerEnergies(*chip, *codec, *gb<<30, 1e-3, 9, 0, *maxCores)
	if err != nil {
		return err
	}
	rows := make([][]string, 0, len(samples))
	best := samples[0]
	for _, s := range samples {
		if s.Joules < best.Joules {
			best = s
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", s.Cores),
			fmt.Sprintf("%.1f s", s.Seconds),
			tables.FormatSI(s.Joules, "J"),
			fmt.Sprintf("%.2fx", samples[0].Seconds/s.Seconds),
		})
	}
	fmt.Print(tables.Render(
		fmt.Sprintf("multi-core compression of %d GiB (%s on %s, tuned frequency)", *gb, *codec, *chip),
		[]string{"cores", "time", "energy", "speedup"}, rows))
	fmt.Printf("\nenergy-optimal worker count: %d (%s)\n", best.Cores, tables.FormatSI(best.Joules, "J"))
	return nil
}
