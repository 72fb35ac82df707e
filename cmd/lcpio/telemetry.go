package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"lcpio/internal/dvfs"
	"lcpio/internal/machine"
	"lcpio/internal/obs"
)

// globalFlags may appear anywhere on the command line; newGlobalFlagSet
// declares them.
type globalFlags struct {
	metrics    string // Prometheus text-format output file
	trace      string // JSON span-tree + metrics output file
	chrome     string // Chrome trace-event JSON output file
	folded     string // folded-stack (flamegraph) output file, self-time weighted
	spans      bool   // dump the human-readable span tree to stderr on exit
	pprof      string // net/http/pprof listen address
	cpuprofile string // pprof CPU profile captured around the command
	memprofile string // pprof heap profile written on exit
	progress   bool   // force the sweep progress line even off-TTY
	workers    int    // intra-codec worker goroutines; 0 = all cores
}

// globalWorkers is the --workers value, read by every command that invokes
// a codec. Worker count never changes compressed bytes.
var globalWorkers int

// newGlobalFlagSet is the one declaration of the global flags: parsing,
// hoisting and the usage text all read it.
func newGlobalFlagSet(gf *globalFlags) *flag.FlagSet {
	fs := flag.NewFlagSet("lcpio", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	fs.Usage = usage
	fs.StringVar(&gf.metrics, "metrics", "", "write Prometheus text-format metrics to `file` on exit")
	fs.StringVar(&gf.trace, "trace", "", "write a JSON span tree + metrics to `file` on exit")
	fs.StringVar(&gf.chrome, "chrome", "", "write a Chrome trace-event JSON timeline to `file` on exit")
	fs.StringVar(&gf.folded, "folded", "", "write folded stacks (flamegraph input, self-time weighted) to `file` on exit")
	fs.BoolVar(&gf.spans, "spans", false, "print the span tree to stderr on exit")
	fs.StringVar(&gf.pprof, "pprof", "", "serve net/http/pprof on `addr` (e.g. localhost:6060)")
	fs.StringVar(&gf.cpuprofile, "cpuprofile", "", "capture a pprof CPU profile of the command to `file`")
	fs.StringVar(&gf.memprofile, "memprofile", "", "write a pprof heap profile to `file` on exit")
	fs.BoolVar(&gf.progress, "progress", false, "print sweep progress to stderr even when it is not a TTY")
	fs.IntVar(&gf.workers, "workers", 0, "intra-codec worker goroutines, `n` (0 = all cores); never changes output bytes")
	return fs
}

// hoistGlobalFlags partitions args into the tokens of fs's flags and
// everything else, so global flags may appear anywhere on the command line —
// before the command, after it, or between a command and its subcommand
// (e.g. `lcpio ckpt write --workers 4`). Only the exact global flag names
// are hoisted; per-command flags are left in place. A bare "--" stops the
// scan and the remainder passes through untouched.
func hoistGlobalFlags(fs *flag.FlagSet, args []string) (globals, rest []string) {
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "--" {
			rest = append(rest, args[i:]...)
			break
		}
		name, _, hasValue := strings.Cut(strings.TrimLeft(a, "-"), "=")
		f := fs.Lookup(name)
		if len(a) < 2 || a[0] != '-' || f == nil {
			rest = append(rest, a)
			continue
		}
		globals = append(globals, a)
		// A value flag written without "=" takes the next token.
		b, _ := f.Value.(interface{ IsBoolFlag() bool })
		if !hasValue && (b == nil || !b.IsBoolFlag()) && i+1 < len(args) {
			i++
			globals = append(globals, args[i])
		}
	}
	return globals, rest
}

// parseGlobalFlags splits os.Args-style input into the global flags and
// the remaining [command, args...] tail. Global flags are recognized
// anywhere on the line (see hoistGlobalFlags), so every command and
// subcommand honors --workers and the telemetry flags uniformly regardless
// of ordering.
func parseGlobalFlags(args []string) (globalFlags, []string, error) {
	var gf globalFlags
	fs := newGlobalFlagSet(&gf)
	globals, rest := hoistGlobalFlags(fs, args)
	if err := fs.Parse(globals); err != nil {
		return gf, nil, err
	}
	return gf, rest, nil
}

// telemetryWanted reports whether any flag needs a live registry.
func (gf globalFlags) telemetryWanted() bool {
	return gf.metrics != "" || gf.trace != "" || gf.chrome != "" || gf.folded != "" || gf.spans
}

// longSweepCommand lists the commands that run long enough for a
// default-on TTY progress line.
func longSweepCommand(name string) bool {
	switch name {
	case "fig6", "all", "table4", "table5", "headlines", "load", "sweep":
		return true
	}
	return false
}

func stderrIsTTY() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// setupTelemetry installs the registry, progress tap, root span, profile
// capture and pprof listener per the global flags. The returned finish func
// ends the root span, stops profiles and writes the requested exporter
// files; it is safe to call when telemetry is disabled.
func setupTelemetry(gf globalFlags, cmdName string) (func() error, error) {
	progressOn := gf.progress || (longSweepCommand(cmdName) && stderrIsTTY())
	if !gf.telemetryWanted() && !progressOn &&
		gf.pprof == "" && gf.cpuprofile == "" && gf.memprofile == "" {
		return func() error { return nil }, nil
	}

	if gf.pprof != "" {
		ln, err := net.Listen("tcp", gf.pprof)
		if err != nil {
			return nil, fmt.Errorf("pprof listener: %w", err)
		}
		fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/\n", ln.Addr())
		go func() { _ = http.Serve(ln, nil) }()
	}

	var cpuFile *os.File
	if gf.cpuprofile != "" {
		f, err := os.Create(gf.cpuprofile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		cpuFile = f
	}

	var reg *obs.Registry
	var prog *progressLine
	if gf.telemetryWanted() || progressOn {
		reg = obs.NewRegistry()
		// Price span workloads through the simulated machine model so traces
		// carry joules; campaign phases attribute their exact energy instead.
		reg.SetEnergyModel(machine.EnergyModel(dvfs.Broadwell()))
		if progressOn {
			prog = &progressLine{reg: reg, out: os.Stderr}
			reg.SetTap(prog)
		}
		obs.Use(reg)
	}
	root := obs.Start("lcpio." + cmdName)

	return func() error {
		root.End()
		if prog != nil {
			prog.finish()
		}
		var firstErr error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				firstErr = err
			}
		}
		if gf.memprofile != "" {
			f, err := os.Create(gf.memprofile)
			if err == nil {
				runtime.GC() // flush recent frees into the heap profile
				err = pprof.WriteHeapProfile(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if reg == nil {
			return firstErr
		}
		obs.Use(nil)
		write := func(path string, emit func(io.Writer) error) {
			if path == "" {
				return
			}
			f, err := os.Create(path)
			if err == nil {
				err = emit(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		write(gf.metrics, reg.WritePrometheus)
		write(gf.trace, reg.WriteJSON)
		write(gf.chrome, reg.WriteChromeTrace)
		write(gf.folded, func(w io.Writer) error { return reg.WriteFolded(w, false) })
		if gf.spans {
			if err := reg.WriteSpanTree(os.Stderr); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}, nil
}

// progressLine is an obs.Recorder that redraws "sweep points done/total"
// on stderr as the lcpio_sweep_points_total counter advances. Every
// pipeline that contributes a unit of sweep-shaped work (perf frequency
// points, ratio measurements, dump error bounds) feeds the same pair of
// counters, so one line covers all experiment commands.
type progressLine struct {
	reg *obs.Registry
	out io.Writer

	mu      sync.Mutex
	last    time.Time
	printed bool
}

func (p *progressLine) SpanStart(id, parent int, name string)        {}
func (p *progressLine) SpanEnd(id int, name string, d time.Duration) {}
func (p *progressLine) MetricUpdate(name string, value float64) {
	if name != "lcpio_sweep_points_total" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	expected, _ := p.reg.CounterValue("lcpio_sweep_points_expected")
	done := value
	// Throttle redraws, but always show a completed total.
	if time.Since(p.last) < 100*time.Millisecond && done < expected {
		return
	}
	p.last = time.Now()
	p.printed = true
	fmt.Fprintf(p.out, "\rsweep points %.0f/%.0f", done, expected)
}

// finish terminates the progress line so later output starts clean.
func (p *progressLine) finish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.printed {
		fmt.Fprintln(p.out)
		p.printed = false
	}
}
