package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"lcpio/internal/obs"
)

// cmdReport renders a recorded trace (the --trace JSON file) as the
// span/energy tree plus the pipeline occupancy table, and optionally
// re-exports it in Chrome trace-event or folded-stack form — so a single
// recorded run can be inspected, flamegraphed and timeline-viewed without
// re-running the experiment.
func cmdReport(args []string) error {
	// The input flag is -in, not -trace: -trace is a global flag and would
	// be hoisted off the subcommand's argument list before it parses.
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	traceFile := fs.String("in", "", "recorded trace JSON `file` (from lcpio --trace)")
	chromeOut := fs.String("chrome-out", "", "also write a Chrome trace-event timeline to `file`")
	foldedOut := fs.String("folded-out", "", "also write self-time folded stacks to `file`")
	foldedEnergy := fs.String("folded-energy", "", "also write energy-weighted folded stacks to `file`")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: lcpio report -in trace.json [-chrome-out f] [-folded-out f] [-folded-energy f]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceFile == "" {
		fs.Usage()
		return fmt.Errorf("report: -in is required")
	}
	f, err := os.Open(*traceFile)
	if err != nil {
		return err
	}
	snap, err := obs.ReadSnapshot(f)
	f.Close()
	if err != nil {
		return err
	}

	out := os.Stdout
	fmt.Fprintf(out, "trace: %s\n\n", *traceFile)
	if err := snap.WriteTree(out); err != nil {
		return err
	}
	if j := snap.RootJoules(); j != 0 {
		fmt.Fprintf(out, "\ntotal attributed energy: %.4g J\n", j)
	}
	reportSpanTotals(out, snap)
	reportPipelines(out, snap)

	save := func(path string, emit func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		g, err := os.Create(path)
		if err != nil {
			return err
		}
		err = emit(g)
		if cerr := g.Close(); err == nil {
			err = cerr
		}
		return err
	}
	if err := save(*chromeOut, snap.WriteChromeTrace); err != nil {
		return err
	}
	if err := save(*foldedOut, func(w io.Writer) error { return snap.WriteFolded(w, false) }); err != nil {
		return err
	}
	return save(*foldedEnergy, func(w io.Writer) error { return snap.WriteFolded(w, true) })
}

// reportSpanTotals prints the per-name aggregates, hottest (by seconds)
// first.
func reportSpanTotals(w io.Writer, snap *obs.Snapshot) {
	if len(snap.SpanTotals) == 0 {
		return
	}
	names := make([]string, 0, len(snap.SpanTotals))
	for n := range snap.SpanTotals {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := snap.SpanTotals[names[i]], snap.SpanTotals[names[j]]
		if a.Seconds != b.Seconds {
			return a.Seconds > b.Seconds
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "\n%-36s %8s %12s %12s\n", "span", "count", "seconds", "joules")
	for _, n := range names {
		t := snap.SpanTotals[n]
		fmt.Fprintf(w, "%-36s %8d %12.6f %12.4g\n", n, t.Count, t.Seconds, t.Joules)
	}
}

// reportPipelines prints each pipeline's occupancy table and its one-line
// critical-path verdict.
func reportPipelines(w io.Writer, snap *obs.Snapshot) {
	if len(snap.Pipelines) == 0 {
		return
	}
	pnames := make([]string, 0, len(snap.Pipelines))
	for n := range snap.Pipelines {
		pnames = append(pnames, n)
	}
	sort.Strings(pnames)
	for _, pname := range pnames {
		p := snap.Pipelines[pname]
		fmt.Fprintf(w, "\npipeline %s\n", p.Summary(pname))
		snames := make([]string, 0, len(p.Stages))
		for n := range p.Stages {
			snames = append(snames, n)
		}
		sort.Slice(snames, func(i, j int) bool {
			a, b := p.Stages[snames[i]], p.Stages[snames[j]]
			if a.RunSeconds != b.RunSeconds {
				return a.RunSeconds > b.RunSeconds
			}
			return snames[i] < snames[j]
		})
		fmt.Fprintf(w, "  %-24s %8s %10s %12s %12s %10s %6s %6s\n",
			"stage", "items", "run_s", "wait_in_s", "wait_out_s", "blocked_s", "run%", "wait%")
		for _, sname := range snames {
			st := p.Stages[sname]
			tot := st.RunSeconds + st.WaitInputSeconds + st.WaitOutputSeconds + st.BlockedSeconds
			var runPct, waitPct float64
			if tot > 0 {
				runPct = 100 * st.RunSeconds / tot
				waitPct = 100 - runPct
			}
			fmt.Fprintf(w, "  %-24s %8d %10.6f %12.6f %12.6f %10.6f %5.1f%% %5.1f%%\n",
				sname, st.Items, st.RunSeconds, st.WaitInputSeconds, st.WaitOutputSeconds,
				st.BlockedSeconds, runPct, waitPct)
		}
	}
}
