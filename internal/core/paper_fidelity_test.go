package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"lcpio/internal/compress"
	"lcpio/internal/perf"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's ledger block from the golden config")

// gather runs every paper artifact at cfg on the config's two campaigns.
func gather(t *testing.T, cfg Config, cs, ts *Study) *Evidence {
	t.Helper()
	ev := &Evidence{}
	var errs [9]error
	ev.TableIV, errs[0] = cs.Fit(TableIV)
	ev.TableV, errs[1] = ts.Fit(TableV)
	ev.Fig1, errs[2] = cs.Characteristics(perf.Sweep.ScaledPower)
	ev.Fig2, errs[3] = cs.Characteristics(perf.Sweep.ScaledRuntime)
	ev.Fig3, errs[4] = ts.Characteristics(perf.Sweep.ScaledPower)
	ev.Fig4, errs[5] = ts.Characteristics(perf.Sweep.ScaledRuntime)
	ev.Fig5, errs[6] = ValidateBroadwellModel(cfg, fit(ev.TableIV, "Broadwell"))
	ev.Fig6, errs[7] = RunDataDump(cfg)
	ev.Headlines, errs[8] = ComputeHeadlinesFrom(cs, ts, ev.Fig6)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// One curve per chip and codec in Figures 1-2, per chip in 3-4 (in label
	// order); Figure 5's prediction on the measured grid; a bar group per
	// bound in Figure 6.
	if len(ev.Fig1) != 4 || len(ev.Fig2) != 4 || len(ev.Fig3) != 2 || len(ev.Fig4) != 2 || ev.Fig4[0].Label != "Broadwell" ||
		len(ev.Fig5.Measured.Y) == 0 || len(ev.Fig5.Predicted.Y) != len(ev.Fig5.Measured.Y) ||
		len(ev.Fig6) != len(compress.PaperErrorBounds) {
		t.Fatal("the artifacts lack curves, points or bars the ledger reads")
	}
	return ev
}

// TestPaperFidelity checks every Ledger row's band at the golden config and
// at testConfig and its status at the golden config, then holds
// EXPERIMENTS.md's ledger block to the rows (-update rewrites it).
func TestPaperFidelity(t *testing.T) {
	cs, ts := sharedStudies(t)
	small := gather(t, testConfig(), cs, ts)
	golden := Config{Seed: 1, Repetitions: 10, RatioElems: 1 << 18} // `lcpio all`'s defaults
	gcs, err := RunCompressionStudy(golden)
	if err != nil {
		t.Fatal(err)
	}
	gts, err := RunTransitStudy(golden)
	if err != nil {
		t.Fatal(err)
	}
	ev := gather(t, golden, gcs, gts)

	for _, c := range Ledger {
		for cfg, e := range map[string]*Evidence{"the golden config": ev, "testConfig": small} {
			if m := c.measure(e); !(c.Lo < m && m < c.Hi) {
				t.Errorf("%s at %s: measured %.4g outside its band (%g, %g)", c.ID, cfg, m, c.Lo, c.Hi)
			}
		}
		// A qualitative row (Paper NaN) holds by its band, and cannot be a
		// known delta: NaN is never outside a tolerance.
		m := c.measure(ev)
		if c.Delta == "" && math.Abs(m-c.Paper) > c.Tol {
			t.Errorf("%s holds no longer: measured %.4g, paper %g ± %g", c.ID, m, c.Paper, c.Tol)
		}
		if c.Delta != "" && !(math.Abs(m-c.Paper) > c.Tol) {
			t.Errorf("%s: known delta now within tolerance (measured %.4g, paper %g ± %g): "+
				"promote it to holds by clearing its cause", c.ID, m, c.Paper, c.Tol)
		}
	}

	const path, begin, end = "../../EXPERIMENTS.md", "<!-- ledger begin", "<!-- ledger end -->"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i, j := strings.Index(string(doc), begin), strings.Index(string(doc), end)
	if i < 0 || j < i {
		t.Fatalf("%s lacks the %q ... %q markers", path, begin, end)
	}
	i += strings.Index(string(doc[i:]), "\n") + 1
	want := string(doc[:i]) + renderLedger(ev) + string(doc[j:])
	if *update {
		if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want != string(doc) {
		t.Errorf("%s's ledger block differs from the Ledger rows at the golden config; "+
			"run go test ./internal/core -run TestPaperFidelity -update", path)
	}
}

// renderLedger is EXPERIMENTS.md's ledger block: a table per artifact, then
// the known deltas grouped by their measured cause.
func renderLedger(ev *Evidence) string {
	const figs = "Figures 1-4 — scaled characteristics"
	titles := map[string]string{"table4": "Table IV — compression power models P(f) = a·f^b + c",
		"table5": "Table V — data-writing power models", "fig1": figs, "fig2": figs, "fig3": figs, "fig3-fig1": figs, "fig4": figs,
		"fig5": "Figure 5 — held-out validation (Hurricane-ISABEL, Broadwell)",
		"fig6": "Figure 6 — 512 GiB data dump, base clock vs Eqn 3", "headlines": "Headline numbers"}
	var b strings.Builder
	title, causes, rows := "", []string{}, map[string][]string{}
	for _, c := range Ledger {
		if s := titles[strings.SplitN(c.ID, "/", 2)[0]]; s != title {
			title = s
			fmt.Fprintf(&b, "\n### %s\n\n| row | claim | paper | tolerance | measured | band | status |\n|---|---|---|---|---|---|---|\n", s)
		}
		paper, tol, status, m := "—", "—", "holds", c.measure(ev)
		if !math.IsNaN(c.Paper) {
			paper, tol = fmt.Sprintf("%g", c.Paper), fmt.Sprintf("±%g", c.Tol)
		}
		if c.Delta != "" {
			if status = "known delta"; rows[c.Delta] == nil {
				causes = append(causes, c.Delta)
			}
			rows[c.Delta] = append(rows[c.Delta], fmt.Sprintf("`%s` (paper %g, measured %.4g)", c.ID, c.Paper, m))
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %.4g | (%g, %g) | %s |\n", c.ID, c.Claim, paper, tol, m, c.Lo, c.Hi, status)
	}
	b.WriteString("\n### Known deltas and their measured causes\n\n")
	for _, cause := range causes {
		fmt.Fprintf(&b, "* %s: %s.\n", strings.Join(rows[cause], ", "), cause)
	}
	return b.String() + "\n"
}
