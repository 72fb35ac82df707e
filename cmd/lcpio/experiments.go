package main

import (
	"flag"
	"fmt"
	"strings"
	"sync"

	"lcpio/internal/core"
	"lcpio/internal/dvfs"
	"lcpio/internal/fpdata"
	"lcpio/internal/perf"
	"lcpio/internal/phases"
	"lcpio/internal/tables"
)

// experimentFlags parses the flags shared by all experiment commands.
func experimentFlags(name string, args []string) (core.Config, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "experiment seed (reproducible per seed)")
	reps := fs.Int("reps", 10, "repetitions per frequency step")
	elems := fs.Int("ratio-elems", 1<<18, "target element count for codec ratio runs")
	chips := fs.String("chips", "", "comma-separated chip list (default: the paper's Broadwell,Skylake; add CascadeLake for the follow-up generation)")
	if err := fs.Parse(args); err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{Seed: *seed, Repetitions: *reps, RatioElems: *elems, Workers: globalWorkers}
	if *chips != "" {
		for _, c := range strings.Split(*chips, ",") {
			if c = strings.TrimSpace(c); c != "" {
				cfg.Chips = append(cfg.Chips, c)
			}
		}
	}
	return cfg, nil
}

// The two measurement campaigns the experiment commands draw on.
const (
	compression = iota // Section IV-A
	writing            // Section IV-B
)

// Studies are cached per config so `lcpio all` runs each campaign once, and
// so is the last Figure 6 dump, which `all`'s headlines summarize.
var (
	studyMu   sync.Mutex
	studyCfg  core.Config
	studyBoth [2]*core.Study
	dumpCfg   core.Config
	dumpLast  []core.DumpResult
)

func studies(cfg core.Config) (st [2]*core.Study, err error) {
	studyMu.Lock()
	defer studyMu.Unlock()
	if studyBoth[compression] != nil && cfgEqual(studyCfg, cfg) {
		return studyBoth, nil
	}
	if st[compression], err = core.RunCompressionStudy(cfg); err != nil {
		return st, err
	}
	if st[writing], err = core.RunTransitStudy(cfg); err != nil {
		return st, err
	}
	studyCfg, studyBoth = cfg, st
	return st, nil
}

// dataDump measures Figure 6 at cfg, or, with reuse, returns the dump an
// earlier command measured at cfg: fig6 always measures, and the headlines
// that follow it in `lcpio all` summarize that measurement.
func dataDump(cfg core.Config, reuse bool) ([]core.DumpResult, error) {
	studyMu.Lock()
	defer studyMu.Unlock()
	if reuse && dumpLast != nil && cfgEqual(dumpCfg, cfg) {
		return dumpLast, nil
	}
	dump, err := core.RunDataDump(cfg)
	if err != nil {
		return nil, err
	}
	dumpCfg, dumpLast = cfg, dump
	return dump, nil
}

func cfgEqual(a, b core.Config) bool {
	if len(a.Chips) != len(b.Chips) {
		return false
	}
	for i := range a.Chips {
		if a.Chips[i] != b.Chips[i] {
			return false
		}
	}
	return a.Seed == b.Seed && a.Repetitions == b.Repetitions &&
		a.RatioElems == b.RatioElems && a.Workers == b.Workers
}

func cmdTable1(args []string) error {
	if _, err := experimentFlags("table1", args); err != nil {
		return err
	}
	rows := make([][]string, 0, 3)
	for _, s := range fpdata.TableI() {
		rows = append(rows, []string{
			s.Dataset,
			fmt.Sprint(s.Dims),
			tables.FormatSI(float64(s.PaperBytes), "B"),
			s.Domain,
		})
	}
	fmt.Print(tables.Render("TABLE I: data sets considered in study",
		[]string{"Domain", "Dimensions", "Size of Fields", "Kind"}, rows))
	return nil
}

func cmdTable2(args []string) error {
	if _, err := experimentFlags("table2", args); err != nil {
		return err
	}
	rows := make([][]string, 0, 2)
	for _, c := range dvfs.Chips() {
		rows = append(rows, []string{
			c.Node, c.Model,
			fmt.Sprintf("%.1fGHz - %.1fGHz", c.MinGHz, c.BaseGHz),
			c.Series,
			fmt.Sprintf("%.0fW", c.TDP),
		})
	}
	fmt.Print(tables.Render("TABLE II: hardware utilized",
		[]string{"CloudLab", "CPU", "CPU Min - Base Clock", "Series", "TDP"}, rows))
	return nil
}

func cmdTable3(args []string) error {
	if _, err := experimentFlags("table3", args); err != nil {
		return err
	}
	// Table III is the list of partitions Table IV fits.
	rows := make([][]string, 0, len(core.TableIV))
	for _, p := range core.TableIV {
		codecs, chips := "SZ, ZFP", "Broadwell, Skylake"
		if p.Codec != "" {
			codecs = strings.ToUpper(p.Codec)
		}
		if p.Chip != "" {
			chips = p.Chip
		}
		rows = append(rows, []string{p.Name, codecs, chips})
	}
	fmt.Print(tables.Render("TABLE III: models produced for tuning",
		[]string{"Model Data", "Compressor(s)", "CPU(s)"}, rows))
	return nil
}

func modelTable(title string, rows []core.ModelRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Name,
			"P(f) = " + r.Fit.String(),
			fmt.Sprintf("%.4g", r.Fit.GF.SSE),
			fmt.Sprintf("%.4g", r.Fit.GF.RMSE),
			fmt.Sprintf("%.4g", r.Fit.GF.R2),
		})
	}
	return tables.Render(title,
		[]string{"Model Data", "P_fit(f)", "SSE", "RMSE", "R^2"}, out)
}

// fitTable prints the models of one campaign over the given partitions.
func fitTable(args []string, name, title string, campaign int, parts []core.Partition) error {
	cfg, err := experimentFlags(name, args)
	if err != nil {
		return err
	}
	st, err := studies(cfg)
	if err != nil {
		return err
	}
	rows, err := st[campaign].Fit(parts)
	if err != nil {
		return err
	}
	fmt.Print(modelTable(title, rows))
	return nil
}

func cmdTable4(args []string) error {
	return fitTable(args, "table4", "TABLE IV: model equations and GF for compression", compression, core.TableIV)
}

func cmdTable5(args []string) error {
	return fitTable(args, "table5", "TABLE V: models and GF data transit", writing, core.TableV)
}

func plotSeries(ss []core.Series) []tables.PlotSeries {
	out := make([]tables.PlotSeries, len(ss))
	for i, s := range ss {
		out[i] = tables.PlotSeries{Label: s.Label, X: s.Freq, Y: s.Y}
	}
	return out
}

// figure plots one campaign under extract.
func figure(args []string, name, title, ylabel string, campaign int, extract core.Extract) error {
	cfg, err := experimentFlags(name, args)
	if err != nil {
		return err
	}
	st, err := studies(cfg)
	if err != nil {
		return err
	}
	series, err := st[campaign].Characteristics(extract)
	if err != nil {
		return err
	}
	fmt.Print(tables.Plot(title, "frequency (GHz)", ylabel, plotSeries(series)))
	// The numeric series backing the plot, for external plotting.
	for _, s := range series {
		fmt.Printf("\n%s:\n", s.Label)
		for i := range s.Freq {
			fmt.Printf("  f=%.2f  y=%.4f  ci=%.4f\n", s.Freq[i], s.Y[i], s.CI[i])
		}
	}
	return nil
}

func cmdFig1(args []string) error {
	return figure(args, "fig1", "Fig. 1: Compression Scaled Power Characteristics",
		"scaled power", compression, perf.Sweep.ScaledPower)
}

func cmdFig2(args []string) error {
	return figure(args, "fig2", "Fig. 2: Compression Scaled Runtime Characteristics",
		"scaled runtime", compression, perf.Sweep.ScaledRuntime)
}

func cmdFig3(args []string) error {
	return figure(args, "fig3", "Fig. 3: Data Transit Scaled Power Characteristics",
		"scaled power", writing, perf.Sweep.ScaledPower)
}

func cmdFig4(args []string) error {
	return figure(args, "fig4", "Fig. 4: Data Transit Scaled Runtime Characteristics",
		"scaled runtime", writing, perf.Sweep.ScaledRuntime)
}

func cmdFig5(args []string) error {
	cfg, err := experimentFlags("fig5", args)
	if err != nil {
		return err
	}
	st, err := studies(cfg)
	if err != nil {
		return err
	}
	rows, err := st[compression].Fit(core.TableIV)
	if err != nil {
		return err
	}
	bw, err := core.FindRow(rows, "Broadwell")
	if err != nil {
		return err
	}
	v, err := core.ValidateBroadwellModel(cfg, bw.Fit)
	if err != nil {
		return err
	}
	fmt.Print(tables.Plot("Fig. 5: Broadwell Chip Model for Power Consumption (held-out Hurricane-ISABEL)",
		"frequency (GHz)", "scaled power", []tables.PlotSeries{
			{Label: "measured (ISABEL)", X: v.Measured.Freq, Y: v.Measured.Y},
			{Label: "model " + bw.Fit.String(), X: v.Predicted.Freq, Y: v.Predicted.Y},
		}))
	fmt.Printf("\nvalidation: SSE=%.4g RMSE=%.4g (paper: SSE=%.4g, RMSE=%.4g)\n",
		v.GF.SSE, v.GF.RMSE, core.PaperValue("fig5/ISABEL/SSE"), core.PaperValue("fig5/ISABEL/RMSE"))
	return nil
}

func cmdFig6(args []string) error {
	cfg, err := experimentFlags("fig6", args)
	if err != nil {
		return err
	}
	results, err := dataDump(cfg, false)
	if err != nil {
		return err
	}
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		rows = append(rows, []string{
			fmt.Sprintf("%g", r.EB),
			fmt.Sprintf("%.1f", r.Ratio),
			tables.FormatBytes(r.CompressedBytes),
			tables.FormatSI(r.BaseCompressJ, "J"),
			tables.FormatSI(r.BaseTransitJ, "J"),
			tables.FormatSI(r.TunedCompressJ, "J"),
			tables.FormatSI(r.TunedTransitJ, "J"),
			tables.FormatSI(r.SavedJ(), "J"),
			fmt.Sprintf("%.1f%%", r.SavedPct()),
		})
	}
	fmt.Print(tables.Render(
		"Fig. 6: Energy Dissipation for Data Dumping (512 GiB NYX velocity-x over 10GbE NFS, SZ)",
		[]string{"eb", "ratio", "compressed", "base comp", "base write",
			"tuned comp", "tuned write", "saved", "saved%"}, rows))
	savedJ, savedPct, err := core.AverageDumpSavings(results)
	if err != nil {
		return err
	}
	fmt.Printf("\naverage saving: %s (%.1f%%)  [paper: %.1f kJ, %.0f%%]\n",
		tables.FormatSI(savedJ, "J"), savedPct,
		core.PaperValue("fig6/average/kJ"), core.PaperValue("fig6/average/pct"))
	return nil
}

func cmdHeadlines(args []string) error {
	cfg, err := experimentFlags("headlines", args)
	if err != nil {
		return err
	}
	st, err := studies(cfg)
	if err != nil {
		return err
	}
	dump, err := dataDump(cfg, true)
	if err != nil {
		return err
	}
	h, err := core.ComputeHeadlinesFrom(st[compression], st[writing], dump)
	if err != nil {
		return err
	}
	fmt.Println(h)
	p, rule := core.PaperValue, phases.PaperRule()
	fmt.Printf("\npaper headlines for comparison:\n"+
		"  compression: power -%.1f%%, runtime +%.1f%% at %g f_max\n  data writing: power -%.1f%%, runtime +%.1f%% at %g f_max\n"+
		"  average: %.1f%% energy savings, +%.1f%% runtime\n  512GB dump: %.1f kJ (%.0f%%) saved\n",
		p("headlines/compression/power"), p("headlines/compression/runtime"), rule.CompressionFraction,
		p("headlines/writing/power"), p("headlines/writing/runtime"), rule.WritingFraction,
		p("headlines/average/energy"), p("headlines/average/runtime"), p("fig6/average/kJ"), p("fig6/average/pct"))
	return nil
}

func cmdAll(args []string) error {
	steps := []func([]string) error{
		cmdTable1, cmdTable2, cmdTable3, cmdTable4, cmdTable5,
		cmdFig1, cmdFig2, cmdFig3, cmdFig4, cmdFig5, cmdFig6, cmdHeadlines,
	}
	for i, step := range steps {
		if i > 0 {
			fmt.Println()
		}
		if err := step(args); err != nil {
			return err
		}
	}
	return nil
}
