package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"lcpio/internal/stats"
)

// runResult is one run of one workload: what -out and HISTORY.jsonl record
// and what -compare reads back.
type runResult struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Cycles    int      `json:"cycles"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Notes     []string `json:"notes,omitempty"`
	// Detail says how the timed cycles were distributed (end-to-end runs).
	Detail  string           `json:"detail,omitempty"`
	Metrics map[string]value `json:"metrics"`
}

// Timed cycles run until the -seconds budget is spent, but never fewer than
// minCycles: medians of fewer samples move with a single outlier.
const (
	minCycles   = 5
	setupRepeat = 3 // set-ups per untraced run; setup_s is their median
)

// runWorkload sets the workload up, loads it for cfg.Seconds and returns its
// metrics: the end-to-end set untraced, the per-layer set traced.
func runWorkload(w workload, cfg config, traced bool) (*runResult, error) {
	if traced {
		return runTraced(w, cfg)
	}
	repeats, floor := setupRepeat, minCycles
	if cfg.Smoke {
		repeats, floor = 1, 1
	}
	var e *env
	var setupS []float64
	for i := 0; i < repeats; i++ {
		if e != nil {
			// Repeating the set-up is a measurement device; collect the
			// previous one so peak_rss_mb stays that of a single set-up.
			e.close()
			e = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(w, cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer e.close()

	var outs []*cycleOut
	var allocMB []float64
	var mem runtime.MemStats
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for len(outs) < floor || time.Now().Before(deadline) {
		runtime.ReadMemStats(&mem)
		before := mem.TotalAlloc
		c, err := e.cycle()
		if err != nil {
			break // counted in the tally; reported below
		}
		runtime.ReadMemStats(&mem)
		allocMB = append(allocMB, float64(mem.TotalAlloc-before)/1e6)
		if len(outs) == 0 {
			e.verifyCycle(c)
		}
		outs = append(outs, c)
	}
	if len(outs) > 1 {
		e.verifyCycle(outs[len(outs)-1])
	}

	res := &runResult{
		Workload: w.Name, Cycles: len(outs),
		Attempted: e.tally.Attempted, Failed: e.tally.Failed, Notes: e.tally.Notes,
	}
	if len(outs) == 0 {
		return res, nil
	}
	ms := newMetricSet(endToEnd, []metricDef{failShare})
	var dumpS, restoreS []float64
	for _, c := range outs {
		dumpS = append(dumpS, c.DumpS)
		restoreS = append(restoreS, c.RestoreS)
	}
	last := outs[len(outs)-1]
	rawMB, rawGB := float64(e.raw)/1e6, float64(e.raw)/1e9
	n := len(outs)
	// Throughput is taken from the fastest of the n identical cycles, not
	// the median one: on a shared host neighbours only ever add time, so the
	// fastest cycle is the estimate of this code's speed that repeats. Over
	// ten runs the median cycle's spread was 5.5% (dump) and 14.6% (restore),
	// the fastest cycle's 2.4% and 4.4%. The median is printed beside it.
	ms.must("dump_mbps", rawMB/slices.Min(dumpS), n)
	ms.must("restore_mbps", rawMB/slices.Min(restoreS), n)
	res.Detail = fmt.Sprintf("write half %s; read half %s", secondsSummary(dumpS), secondsSummary(restoreS))
	ms.must("stored_ratio", float64(e.raw)/float64(last.StoredBytes), 0)
	ms.must("modeled_j_per_gb", last.joules()/rawGB, 0)
	ms.must("peak_rss_mb", peakRSSMB(), 0)
	ms.must("alloc_mb_per_cycle", stats.Median(allocMB), n)
	ms.must("setup_s", stats.Median(setupS), len(setupS))
	ms.must("fail_share", float64(res.Failed)/float64(max(1, res.Attempted)), res.Attempted)
	res.Metrics = ms.values
	return res, nil
}

func secondsSummary(xs []float64) string {
	return fmt.Sprintf("fastest %.4f s, median %.4f s, slowest %.4f s of %d",
		slices.Min(xs), stats.Median(xs), slices.Max(xs), len(xs))
}

// peakRSSMB reads this process's high-water resident set (one process per
// workload run, so it is the workload's).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

func traceFile(cfg config, w workload) string {
	return filepath.Join(cfg.Dir, w.Name+".trace.json")
}
