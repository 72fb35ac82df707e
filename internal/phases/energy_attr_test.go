package phases

import (
	"math"
	"testing"

	"lcpio/internal/dvfs"
	"lcpio/internal/machine"
	"lcpio/internal/obs"
)

// TestExecuteAttributesExactEnergyToSpans pins the reconciliation contract:
// the joules Execute attributes to its phase spans, rolled up to the
// phases.execute root, equal Totals.Joules exactly — so a recorded trace of
// a campaign carries the same energy the planner reports.
func TestExecuteAttributesExactEnergyToSpans(t *testing.T) {
	// Build the plan before installing the registry: workload construction
	// runs the nfs simulator, whose spans would otherwise be extra roots.
	chip := dvfs.Broadwell()
	pl := campaign(t, chip).ApplyRule(PaperRule(), chip)

	r := obs.NewRegistry()
	prev := obs.Use(r)
	t.Cleanup(func() { obs.Use(prev) })
	tot, err := pl.Execute(machine.NewNode(chip, 1))
	if err != nil {
		t.Fatal(err)
	}
	if tot.Joules <= 0 {
		t.Fatalf("campaign joules = %v, want > 0", tot.Joules)
	}

	snap := r.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "phases.execute" {
		t.Fatalf("want one phases.execute root, got %+v", snap.Spans)
	}
	root := snap.Spans[0].Joules
	if rel := math.Abs(root-tot.Joules) / tot.Joules; rel > 1e-9 {
		t.Fatalf("root span joules %v != Totals.Joules %v (rel err %v)", root, tot.Joules, rel)
	}
	// The root itself carries no self energy — every joule lives on a phase.
	if snap.Spans[0].SelfJoules != 0 {
		t.Fatalf("execute root self joules = %v, want 0", snap.Spans[0].SelfJoules)
	}
}
