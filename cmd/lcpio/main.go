// Command lcpio reproduces the paper's evaluation artifacts and exposes the
// library's codecs on the command line.
//
// Usage:
//
//	lcpio [global flags] <command> [flags]
//
// Global flags (accepted anywhere on the line) control telemetry and
// parallelism; newGlobalFlagSet declares them and `lcpio` with no arguments
// prints them.
//
// Experiment commands (one per paper artifact):
//
//	table1      dataset characteristics (Table I)
//	table2      hardware matrix (Table II)
//	table3      model-data partitions (Table III)
//	table4      compression power models + goodness of fit (Table IV)
//	table5      data-transit power models + goodness of fit (Table V)
//	fig1        compression scaled power characteristics
//	fig2        compression scaled runtime characteristics
//	fig3        data-transit scaled power characteristics
//	fig4        data-transit scaled runtime characteristics
//	fig5        Broadwell model validation on Hurricane-ISABEL
//	fig6        512 GB data-dumping energy, base clock vs tuned
//	headlines   the abstract's headline numbers
//	all         every table and figure in order
//
// Tool commands:
//
//	compress    compress a raw float32 array file into a container
//	decompress  reverse a container to raw float32
//	stat        print a container's header
//	verify      check a container against its original
//	tune        print the frequency recommendation for a chip
//	ckpt        checkpoint store: write, restore or verify multi-rank sets
//	report      render span/energy tree and occupancy from a recorded trace
//	serve       run lcpiod, the multi-tenant checkpoint daemon
//	client      dump/list/restore checkpoint sets against a running lcpiod
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

type command struct {
	name  string
	brief string
	run   func(args []string) error
}

func commands() []command {
	return []command{
		{"table1", "dataset characteristics (Table I)", cmdTable1},
		{"table2", "hardware matrix (Table II)", cmdTable2},
		{"table3", "model-data partitions (Table III)", cmdTable3},
		{"table4", "compression power models (Table IV)", cmdTable4},
		{"table5", "data-transit power models (Table V)", cmdTable5},
		{"fig1", "compression scaled power (Figure 1)", cmdFig1},
		{"fig2", "compression scaled runtime (Figure 2)", cmdFig2},
		{"fig3", "data-transit scaled power (Figure 3)", cmdFig3},
		{"fig4", "data-transit scaled runtime (Figure 4)", cmdFig4},
		{"fig5", "Broadwell model validation (Figure 5)", cmdFig5},
		{"fig6", "512 GB dump energy (Figure 6)", cmdFig6},
		{"headlines", "headline numbers", cmdHeadlines},
		{"all", "every table and figure", cmdAll},
		{"load", "read-path energy: NFS fetch + decompress (extension)", cmdLoad},
		{"ckpt", "checkpoint store: write|restore|verify multi-rank sets", cmdCkpt},
		{"cluster", "fleet dump comparison: raw vs compressed vs tuned", cmdCluster},
		{"compress", "compress a raw float32 file into a container", cmdCompress},
		{"decompress", "decompress a container to a raw float32 file", cmdDecompress},
		{"stat", "show container metadata", cmdStat},
		{"tune", "frequency recommendation for a chip", cmdTune},
		{"verify", "check a container against its original", cmdVerify},
		{"advise", "pick codec+bound meeting a PSNR floor at least energy", cmdAdvise},
		{"generations", "per-chip models across CPU generations (extension)", cmdGenerations},
		{"energy", "scaled energy vs frequency curves (extension)", cmdEnergy},
		{"cores", "multi-core compression energy scaling (extension)", cmdCores},
		{"sweep", "dump raw sweep measurements as CSV", cmdSweepCSV},
		{"report", "render span/energy tree + occupancy from a recorded trace", cmdReport},
		{"transit", "in-transit compression economics: break-even sweep + quality", cmdTransit},
		{"serve", "run lcpiod: multi-tenant checkpoint daemon with energy-priced admission", cmdServe},
		{"client", "dump/list/restore checkpoint sets against a running lcpiod", cmdClient},
	}
}

// find returns the command of that name in table.
func find(table []command, name string) (command, bool) {
	for _, c := range table {
		if c.name == name {
			return c, true
		}
	}
	return command{}, false
}

// listing is a table's usage lines, one command per line.
func listing(table []command) string {
	var b strings.Builder
	for _, c := range table {
		fmt.Fprintf(&b, "  %-11s %s\n", c.name, c.brief)
	}
	return b.String()
}

// runSub dispatches args[0] through the subcommand table of `lcpio parent`.
func runSub(parent string, table []command, args []string) error {
	subs := strings.TrimSuffix(listing(table), "\n")
	if len(args) < 1 {
		return fmt.Errorf("usage: lcpio %s <subcommand> [flags]\n%s", parent, subs)
	}
	c, ok := find(table, args[0])
	if !ok {
		return fmt.Errorf("unknown %s subcommand %q; want one of\n%s", parent, args[0], subs)
	}
	return c.run(args[1:])
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lcpio [global flags] <command> [flags]")
	fmt.Fprintln(os.Stderr, "\nglobal flags:")
	newGlobalFlagSet(new(globalFlags)).VisitAll(func(f *flag.Flag) {
		arg, help := flag.UnquoteUsage(f)
		fmt.Fprintf(os.Stderr, "  %-18s %s\n", "--"+f.Name+" "+arg, help)
	})
	fmt.Fprint(os.Stderr, "\ncommands:\n", listing(commands()))
}

func main() {
	gf, rest, err := parseGlobalFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	globalWorkers = gf.workers
	if len(rest) < 1 {
		usage()
		os.Exit(2)
	}
	name := rest[0]
	c, ok := find(commands(), name)
	if !ok {
		fmt.Fprintf(os.Stderr, "lcpio: unknown command %q\n\n", name)
		usage()
		os.Exit(2)
	}
	finish, err := setupTelemetry(gf, name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lcpio: %v\n", err)
		os.Exit(1)
	}
	runErr := c.run(rest[1:])
	if ferr := finish(); runErr == nil {
		runErr = ferr
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "lcpio %s: %v\n", name, runErr)
		os.Exit(1)
	}
}
