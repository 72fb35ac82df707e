package core

import (
	"math"
	"strings"

	"lcpio/internal/phases"
	"lcpio/internal/regress"
	"lcpio/internal/stats"
)

// Claim is one row of the paper-fidelity ledger: a paper number or statement,
// the repo's measurement of it, and how far apart they may be. Its test
// checks every row at `lcpio all`'s defaults (pinned by all.txt) and at the
// tests' small config, and renders EXPERIMENTS.md's tables from the rows.
type Claim struct {
	ID      string                  // artifact/partition/quantity: the lcpio command, its row or curve, what of it
	Claim   string                  // what the paper says
	Paper   float64                 // the paper's number; NaN for a qualitative claim, which holds by its band
	Tol     float64                 // ±15 % of a fit or magnitude, ±0.05 of scaled power, ±2 points, ±0.03 of f_max
	Lo, Hi  float64                 // the band: Lo < measured < Hi at both configs
	Delta   string                  // "": holds, within Paper ± Tol at the golden config; else the known delta's measured cause
	measure func(*Evidence) float64 // NaN when the artifacts lack what it reads, which fails every check
}

// Evidence is the paper's artifacts at one Config, the ledger's input.
type Evidence struct {
	TableIV, TableV        []ModelRow
	Fig1, Fig2, Fig3, Fig4 []Series
	Fig5                   Validation
	Fig6                   []DumpResult
	Headlines              Headlines
}

// PaperValue is the paper's number behind ledger row id.
func PaperValue(id string) float64 {
	for _, c := range Ledger {
		if c.ID == id {
			return c.Paper
		}
	}
	panic("core: no ledger row " + id)
}

var inf, nan = math.Inf(1), math.NaN()

// The measured causes of the known deltas, one per cause.
const (
	skylakeKnee  = "Skylake's voltage term u^13 (dvfs.go) is hand-picked: at u^30 the fits read b = 22.95 (Table IV) and 22.60 (Table V) at this config, derived Eqn 3 0.879 / 0.860 (ROADMAP item 13)"
	pooledB      = "Total, SZ and ZFP all fit b = 3.26 where the paper's spread 3.79-4.41; setting the Skylake knee to u^30 lowers them to 2.67, so the Skylake delta is not the cause; not yet isolated"
	staticShare  = "static power (8.2 W Broadwell, 13.5 W Skylake) is a smaller share than the testbed's: at 1.5x both, every Table IV c lands within 0.006 of the paper and the Figure 1 floors at 0.74-0.77, but compression power savings fall to 14.3 % (paper 19.4 %)"
	ioPower      = "no frequency-independent power is drawn while a transfer is in flight: ROADMAP item 17's probe (+10 W while transferring, at -reps 5 -ratio-elems 65536) gives Table V c 0.811 / 0.846 and write power -11.3 %; at 1.5x static power the writing floors still read only 0.75 / 0.81"
	writeCycles  = "a write leg costs too few cycles per byte: ROADMAP item 17's probe at writeCyclesPerByte 2.0 (from 1.55) plus 8 W while transferring gives +9.5 % (at -reps 5 -ratio-elems 65536)"
	writeShape   = "writing and compression share Broadwell's u^3 voltage curve, so their exponents agree here (4.46, 4.62) where the paper's differ (3.40, 5.32)"
	quietNoise   = "the simulator's run-to-run noise is milder: RMSE 0.0061 over 300 held-out points against the paper's 0.0256 over about 223 (SSE / RMSE^2)"
	dumpSaving   = "the paper's own Broadwell fit (b 5.32, c 0.743) gives -13.1 % power at 0.875 f_max and, with its +7.5 % runtime, 6.6 % energy; the base totals (44.5-55.0 kJ) match the paper's implied 50 kJ, so the gap is in the percentage"
	paperAverage = "the paper's own class numbers give 13.4 % (1 - 0.806 x 1.075) and 2.9 % (1 - 0.888 x 1.093), which average 8.2 %, not 14.3 % (ROADMAP item 17)"
)

// Ledger is every paper number and claim the repo reproduces, in the order
// EXPERIMENTS.md presents them. Columns: ID, claim, paper value, tolerance,
// band low, band high, known-delta cause, measurement.
var Ledger = []Claim{
	{"table4/Total/b", "pooled exponent", 4.04, 0.61, -inf, inf, pooledB, fitB(fitsIV, "Total")},
	{"table4/Total/c", "pooled constant", 0.757, 0.05, -inf, inf, staticShare, fitC(fitsIV, "Total")},
	{"table4/SZ/b", "SZ exponent", 3.79, 0.57, -inf, inf, "", fitB(fitsIV, "SZ")},
	{"table4/SZ/c", "SZ constant", 0.754, 0.05, -inf, inf, staticShare, fitC(fitsIV, "SZ")},
	{"table4/ZFP/b", "ZFP exponent", 4.41, 0.66, -inf, inf, pooledB, fitB(fitsIV, "ZFP")},
	{"table4/ZFP/c", "ZFP constant", 0.759, 0.05, -inf, inf, staticShare, fitC(fitsIV, "ZFP")},
	{"table4/Broadwell/b", "Broadwell exponent: a moderate power law", 5.32, 0.80, 2, 12, "", fitB(fitsIV, "Broadwell")},
	{"table4/Broadwell/c", "Broadwell constant", 0.743, 0.05, 0.5, 0.95, staticShare, fitC(fitsIV, "Broadwell")},
	{"table4/Skylake/b", "Skylake exponent: a sharp knee", 23.31, 3.5, 10, inf, skylakeKnee, fitB(fitsIV, "Skylake")},
	{"table4/Skylake/c", "Skylake constant", 0.794, 0.05, 0.5, 0.95, staticShare, fitC(fitsIV, "Skylake")},
	{"table4/Skylake:Broadwell/b", "Skylake's exponent exceeds Broadwell's (ratio)", nan, 0, 1, inf, "", kneeRatio(fitsIV)},
	{"table4/chips:Total/RMSE", "per-chip models fit better than the pooled one (largest RMSE ratio)", nan, 0, -inf, 1, "", rmseRatio(fitsIV)},

	{"table5/Total/b", "pooled exponent", 3.38, 0.51, -inf, inf, "", fitB(fitsV, "Total")},
	{"table5/Total/c", "pooled constant", 0.799, 0.05, -inf, inf, ioPower, fitC(fitsV, "Total")},
	{"table5/Broadwell/b", "Broadwell exponent", 3.40, 0.51, -inf, inf, writeShape, fitB(fitsV, "Broadwell")},
	{"table5/Broadwell/c", "Broadwell constant", 0.710, 0.05, -inf, inf, "", fitC(fitsV, "Broadwell")},
	{"table5/Skylake/b", "Skylake exponent", 20.9, 3.1, -inf, inf, skylakeKnee, fitB(fitsV, "Skylake")},
	{"table5/Skylake/c", "Skylake constant", 0.888, 0.05, -inf, inf, ioPower, fitC(fitsV, "Skylake")},
	{"table5/Skylake:Broadwell/b", "Skylake's exponent exceeds Broadwell's (ratio)", nan, 0, 1, inf, "", kneeRatio(fitsV)},
	{"table5/chips:Total/RMSE", "per-chip models fit better than the pooled one (largest RMSE ratio)", nan, 0, -inf, 1, "", rmseRatio(fitsV)},

	{"fig1/all/f_max", "curves that do not end at 1 at f_max (±0.01)", nan, 0, -inf, 1, "", count(fig1, func(s, _ Series) bool { return math.Abs(s.Y[len(s.Y)-1]-1) > 0.01 })},
	{"fig1/all/argmin", "curves whose power minimum is not at the lowest frequency", nan, 0, -inf, 1, "", count(fig1, func(s, _ Series) bool { f, _ := s.Min(); return f != s.Freq[0] })},
	{"fig1/lowest/floor", "compression power floor, lowest curve", 0.8, 0.05, 0.55, 0.95, staticShare, func(e *Evidence) float64 { lo, _ := floors(e.Fig1, ""); return lo }},
	{"fig1/highest/floor", "compression power floor, highest curve", 0.8, 0.05, 0.55, 0.95, staticShare, func(e *Evidence) float64 { _, hi := floors(e.Fig1, ""); return hi }},
	{"fig2/all/argmin", "curves whose runtime minimum is not at f_max", nan, 0, -inf, 1, "", count(fig2, func(s, _ Series) bool { f, _ := s.Min(); return f != s.Freq[len(s.Freq)-1] })},
	{"fig3/Broadwell/floor", "writing power floor", 0.9, 0.05, -inf, inf, ioPower, func(e *Evidence) float64 { lo, _ := floors(e.Fig3, "Broadwell"); return lo }},
	{"fig3/Skylake/floor", "writing power floor", 0.9, 0.05, -inf, inf, ioPower, func(e *Evidence) float64 { lo, _ := floors(e.Fig3, "Skylake"); return lo }},
	{"fig3-fig1/Broadwell/floor", "writing floor less the highest compression floor: writing saves less power", nan, 0, 0, inf, "", floorMargin("Broadwell")},
	{"fig3-fig1/Skylake/floor", "writing floor less the highest compression floor: writing saves less power", nan, 0, 0, inf, "", floorMargin("Skylake")},
	{"fig4/Broadwell-Skylake/mid", "Skylake's write runtime flatter than Broadwell's at mid-range (rise margin)", nan, 0, 0, inf, "", func(e *Evidence) float64 { bw, sk := e.Fig4[0].Y, e.Fig4[1].Y; return bw[len(bw)/2] - sk[len(sk)/2] }},

	{"fig5/ISABEL/SSE", "held-out SSE", 0.1463, 0.022, -inf, inf, quietNoise, func(e *Evidence) float64 { return e.Fig5.GF.SSE }},
	{"fig5/ISABEL/RMSE", "held-out RMSE: the model generalizes", 0.0256, 0.0038, -inf, 0.08, quietNoise, func(e *Evidence) float64 { return e.Fig5.GF.RMSE }},
	{"fig5/ISABEL/max-gap", "largest gap between measured and predicted on the held-out curve", nan, 0, -inf, 0.12, "", maxGap},

	{"fig6/bounds/tuned<base", "bounds where tuning does not save energy", nan, 0, -inf, 1, "", count(fig6, func(r, _ DumpResult) bool { return r.TunedTotalJ() >= r.BaseTotalJ() })},
	{"fig6/bounds/bytes", "bounds writing fewer bytes than the coarser bound before them", nan, 0, -inf, 1, "", count(fig6, func(r, prev DumpResult) bool { return r.CompressedBytes < prev.CompressedBytes })},
	{"fig6/bounds/runtime", "bounds whose tuned runtime rises outside [0, 20] %", nan, 0, -inf, 1, "", count(fig6, func(r, _ DumpResult) bool { s := r.TunedSeconds/r.BaseSeconds - 1; return s < 0 || s > 0.20 })},
	{"fig6/average/kJ", "average saving, kJ", 6.5, 0.98, 1, 40, dumpSaving, func(e *Evidence) float64 { return e.Headlines.DumpSavedKJ }},
	{"fig6/average/pct", "average saving, %", 13, 2, 4, 25, dumpSaving, func(e *Evidence) float64 { return e.Headlines.DumpSavedPct }},

	{"headlines/compression/power", "power saving at 0.875 f_max, %", 19.4, 2, 8, 28, "", func(e *Evidence) float64 { return e.Headlines.Compression.PowerPct }},
	{"headlines/compression/runtime", "runtime increase at 0.875 f_max, %", 7.5, 2, 3, 14, "", func(e *Evidence) float64 { return e.Headlines.Compression.RuntimePct }},
	{"headlines/compression/energy", "energy saving at 0.875 f_max, %", nan, 0, 0, inf, "", func(e *Evidence) float64 { return e.Headlines.Compression.EnergyPct }},
	{"headlines/writing/power", "power saving at 0.85 f_max, %", 11.2, 2, 5, 25, ioPower, func(e *Evidence) float64 { return e.Headlines.Transit.PowerPct }},
	{"headlines/writing/runtime", "runtime increase at 0.85 f_max, %", 9.3, 2, 1, 14, writeCycles, func(e *Evidence) float64 { return e.Headlines.Transit.RuntimePct }},
	{"headlines/writing/energy", "energy saving at 0.85 f_max, %", nan, 0, 0, inf, "", func(e *Evidence) float64 { return e.Headlines.Transit.EnergyPct }},
	{"headlines/average/power", "average power saving, %", nan, 0, 0, inf, "", func(e *Evidence) float64 { return e.Headlines.AvgPowerSavingsPct }},
	{"headlines/average/energy", "average energy saving, %", 14.3, 2, 0, inf, paperAverage, func(e *Evidence) float64 { return e.Headlines.AvgEnergySavingsPct }},
	{"headlines/average/runtime", "average runtime increase, %", 8.4, 2, 0, 15, "", func(e *Evidence) float64 { return e.Headlines.AvgRuntimeIncreasePct }},
	{"headlines/derived/compression", "energy-optimal compression fraction of f_max (Eqn 3)", phases.PaperRule().CompressionFraction, 0.03, 0.675, 1, "", func(e *Evidence) float64 { return e.Headlines.Derived.CompressionFraction }},
	{"headlines/derived/writing", "energy-optimal writing fraction of f_max (Eqn 3)", phases.PaperRule().WritingFraction, 0.03, 0.65, 1, "", func(e *Evidence) float64 { return e.Headlines.Derived.WritingFraction }},
}

// The artifacts a measurement reads; the test checks their shapes first
// (Figure 4's curves are Broadwell's, then Skylake's).
var (
	fitsIV = func(e *Evidence) []ModelRow { return e.TableIV }
	fitsV  = func(e *Evidence) []ModelRow { return e.TableV }
	fig1   = func(e *Evidence) []Series { return e.Fig1 }
	fig2   = func(e *Evidence) []Series { return e.Fig2 }
	fig6   = func(e *Evidence) []DumpResult { return e.Fig6 }
)

// fit is the named row's fit, NaN throughout when the table lacks it.
func fit(rows []ModelRow, name string) regress.PowerLawFit {
	if r, err := FindRow(rows, name); err == nil {
		return r.Fit
	}
	return regress.PowerLawFit{A: nan, B: nan, C: nan, GF: stats.GoodnessOfFit{SSE: nan, RMSE: nan, R2: nan}}
}

func fitB(t func(*Evidence) []ModelRow, name string) func(*Evidence) float64 {
	return func(e *Evidence) float64 { return fit(t(e), name).B }
}

func fitC(t func(*Evidence) []ModelRow, name string) func(*Evidence) float64 {
	return func(e *Evidence) float64 { return fit(t(e), name).C }
}

func kneeRatio(t func(*Evidence) []ModelRow) func(*Evidence) float64 {
	return func(e *Evidence) float64 { return fit(t(e), "Skylake").B / fit(t(e), "Broadwell").B }
}

// rmseRatio is the larger per-chip RMSE over the pooled model's.
func rmseRatio(t func(*Evidence) []ModelRow) func(*Evidence) float64 {
	return func(e *Evidence) float64 {
		return math.Max(fit(t(e), "Broadwell").GF.RMSE, fit(t(e), "Skylake").GF.RMSE) / fit(t(e), "Total").GF.RMSE
	}
}

// count is how many items are bad next to the one before (the first, itself).
func count[T any](items func(*Evidence) []T, bad func(x, prev T) bool) func(*Evidence) float64 {
	return func(e *Evidence) (n float64) {
		xs := items(e)
		for i, x := range xs {
			if bad(x, xs[max(i-1, 0)]) {
				n++
			}
		}
		return n
	}
}

// floorMargin is the chip's writing floor less its highest compression floor.
func floorMargin(chip string) func(*Evidence) float64 {
	return func(e *Evidence) float64 {
		w, _ := floors(e.Fig3, chip)
		_, c := floors(e.Fig1, chip+" ")
		return w - c
	}
}

// floors are the lowest and highest power floor of the curves whose label
// starts with prefix, NaN when there are none.
func floors(ss []Series, prefix string) (lo, hi float64) {
	lo, hi = inf, -inf
	for _, s := range ss {
		if strings.HasPrefix(s.Label, prefix) {
			_, y := s.Min()
			lo, hi = math.Min(lo, y), math.Max(hi, y)
		}
	}
	if lo == inf {
		return nan, nan
	}
	return lo, hi
}

// maxGap is Figure 5's largest |measured - predicted|.
func maxGap(e *Evidence) (gap float64) {
	for i, m := range e.Fig5.Measured.Y {
		gap = math.Max(gap, math.Abs(m-e.Fig5.Predicted.Y[i]))
	}
	return gap
}
