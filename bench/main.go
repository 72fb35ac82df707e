// Command bench is the repository's one benchmark: it generates a
// workload's inputs from a seed, drives whole dump/restore cycles through
// the real layers (sketch, codec, container, stream, svc frames over a
// loopback socket, medium, manifest — and back), checks every output, and
// prints each metric by name with its unit and a wall/sim tag. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "input seed (field seeds are seed+rank)")
	seconds := fs.Float64("seconds", 10, "seconds of timed cycles per run")
	trace := fs.Int("trace", 0, "1 = traced pass: per-layer metrics and span file instead of end-to-end metrics")
	smoke := fs.Bool("smoke", false, "tiny inputs, one cycle, one set-up: checks the harness, measures nothing")
	repeat := fs.Int("repeat", 1, "run each workload this many times and print median and quartiles per metric")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare old.json new.json")
	out := fs.String("out", "", "write the full result document here and append its summary to bench/HISTORY.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *repeat < 1 || !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}

	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	if *smoke {
		*seconds = 0 // exactly the floor: one cycle, one round
	}
	cfg := config{Seed: *seed, Seconds: *seconds, Smoke: *smoke, Dir: outDir}
	doc := document{Host: fingerprint(), Seed: *seed, Seconds: *seconds, Smoke: *smoke}

	code := 0
	for _, w := range selected {
		for i := 0; i < *repeat; i++ {
			res, err := runWorkload(w, cfg, *trace == 1)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
				return 1
			}
			doc.Runs = append(doc.Runs, *res)
			printRun(stdout, res)
			if res.Failed > 0 || res.Cycles == 0 {
				for _, n := range res.Notes {
					fmt.Fprintf(stderr, "bench: %s: FAILED %s\n", w.Name, n)
				}
				code = 1
			}
		}
		if *repeat > 1 {
			printSpread(stdout, w.Name, doc.Runs[len(doc.Runs)-*repeat:])
		}
	}
	if *out != "" {
		if err := doc.save(*out); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printRun prints every metric by name with unit, tag and sample count, then
// the one-line JSON result. fail_share is printed but kept out of the JSON
// line, whose metrics are exactly those BENCHMARK.json names.
func printRun(w io.Writer, r *runResult) {
	pass := "end-to-end"
	if r.Traced {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(w, "# %s  %s  cycles=%d attempted=%d failed=%d\n", r.Workload, pass, r.Cycles, r.Attempted, r.Failed)
	if r.Detail != "" {
		fmt.Fprintf(w, "# %s\n", r.Detail)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	line := resultLine{
		Correct: r.Failed == 0 && r.Cycles > 0, Attempted: max(1, r.Attempted), Failed: r.Failed,
		Metrics: map[string]lineMetric{},
	}
	for _, n := range names {
		v := r.Metrics[n]
		samples := ""
		if v.N > 0 {
			samples = fmt.Sprintf("  n=%d", v.N)
		}
		fmt.Fprintf(w, "%-30s %16.6g %-7s %s%s\n", n, v.Value, v.Unit, v.Tag, samples)
		if n != failShare.Name {
			line.Metrics[n] = lineMetric{Value: v.Value, Unit: v.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", b)
}
