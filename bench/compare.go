package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
)

// quartiles returns Q1, the median and Q3 as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so a
// spread printed here is the spread the acceptance rule is written in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if len(xs) < 2 || q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// endToEndValues collects one metric over a workload's untraced runs.
func endToEndValues(runs []runResult, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			out = append(out, v.Value)
		}
	}
	return out
}

// printSpread summarizes -repeat runs of one workload: the numbers bounds
// are calibrated from.
func printSpread(w io.Writer, workload string, runs []runResult) {
	fmt.Fprintf(w, "# %s  spread over %d runs (quartile distance / median)\n", workload, len(runs))
	names := map[string]bool{}
	for _, r := range runs {
		for n := range r.Metrics {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, r.Metrics[n].Value)
		}
		q1, q2, q3 := quartiles(xs)
		fmt.Fprintf(w, "%-30s median %14.6g  q1 %14.6g  q3 %14.6g  spread %6.2f%%\n",
			n, q2, q1, q3, 100*spread(xs))
	}
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result documents and returns non-zero when a metric regressed beyond its
// bound or a workload's fail_share rose.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	oldDoc, err := loadDocument(oldPath)
	if err == nil {
		var newDoc *document
		if newDoc, err = loadDocument(newPath); err == nil {
			return compareDocs(oldDoc, newDoc, stdout)
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 2
}

func compareDocs(oldDoc, newDoc *document, w io.Writer) int {
	fmt.Fprintf(w, "old: %s @ %s (%s, %d cpus)\nnew: %s @ %s (%s, %d cpus)\n",
		oldDoc.Host.Commit, oldDoc.Time, oldDoc.Host.CPU, oldDoc.Host.NProc,
		newDoc.Host.Commit, newDoc.Time, newDoc.Host.CPU, newDoc.Host.NProc)
	fmt.Fprintf(w, "%-13s %-19s %12s %12s %-22s %7s %7s  %s\n",
		"workload", "metric", "old median", "new median", "new/old", "spread", "bound", "verdict")
	code := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a := endToEndValues(oldDoc.Runs, wl.Name, d.Name)
			b := endToEndValues(newDoc.Runs, wl.Name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := judge(d, a, b)
			if v.Verdict == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-13s %-19s %12.6g %12.6g %-22s %6.2f%% %6.2f%%  %s\n",
				wl.Name, d.Name, v.Old, v.New, fmt.Sprintf("%.4f of %.6g", v.New/v.Old, v.Old),
				100*v.Spread, 100*d.Bound, v.Verdict)
		}
		a := endToEndValues(oldDoc.Runs, wl.Name, failShare.Name)
		b := endToEndValues(newDoc.Runs, wl.Name, failShare.Name)
		if len(a) > 0 && len(b) > 0 && slices.Max(b) > slices.Max(a) {
			fmt.Fprintf(w, "%-13s %-19s %12.6g %12.6g  more operations failed: regressed\n",
				wl.Name, failShare.Name, slices.Max(a), slices.Max(b))
			code = 1
		}
	}
	return code
}

type verdict struct {
	Old, New float64 // medians
	Spread   float64 // the wider of the two sides' run-to-run spreads
	Verdict  string  // ok, regressed or unresolved
}

// judge applies the benchmark's regression rule to one metric: the new
// median may be worse than the old by at most the bound; when either side's
// own runs spread wider than the bound the comparison is unresolved, unless
// every new run reads better than every old one.
func judge(d metricDef, a, b []float64) verdict {
	_, oldMed, _ := quartiles(a)
	_, newMed, _ := quartiles(b)
	v := verdict{Old: oldMed, New: newMed, Spread: max(spread(a), spread(b)), Verdict: "ok"}
	worse := (newMed - oldMed) / oldMed
	allBetter := slices.Min(b) > slices.Max(a)
	if d.Better == "higher" {
		worse = -worse
	} else {
		allBetter = slices.Max(b) < slices.Min(a)
	}
	switch {
	case v.Spread > d.Bound && !allBetter:
		v.Verdict = "unresolved"
	case worse > d.Bound:
		v.Verdict = "regressed"
	}
	return v
}
