package phases

import (
	"math"
	"testing"

	"lcpio/internal/dvfs"
	"lcpio/internal/machine"
	"lcpio/internal/nfs"
)

func campaign(t *testing.T, chip *dvfs.Chip) Plan {
	t.Helper()
	pr := NewPricer(chip, PaperRule())
	compress, err := pr.Compress("sz", 8<<30, 1e-3, 9)
	if err != nil {
		t.Fatal(err)
	}
	return Campaign(6, 300, compress, pr.Move(nfs.DefaultMount().Write, 1<<30))
}

func TestExecuteBaseClock(t *testing.T) {
	chip := dvfs.Skylake()
	node := machine.NewNode(chip, 1)
	pl := campaign(t, chip)
	tot, err := pl.Execute(node)
	if err != nil {
		t.Fatal(err)
	}
	if tot.Seconds <= 6*300 {
		t.Fatalf("campaign time %.1f below pure compute time", tot.Seconds)
	}
	if tot.Joules <= 0 || tot.AvgWatts() <= 0 {
		t.Fatalf("degenerate totals: %+v", tot)
	}
	// Class splits must cover the total.
	var sumS, sumJ float64
	for _, ct := range tot.ByClass {
		sumS += ct.Seconds
		sumJ += ct.Joules
	}
	if math.Abs(sumS-tot.Seconds) > 1e-9*tot.Seconds ||
		math.Abs(sumJ-tot.Joules) > 1e-9*tot.Joules {
		t.Fatalf("class splits do not sum: %v vs %v", sumS, tot.Seconds)
	}
	if len(tot.ByClass) != 3 {
		t.Fatalf("class count %d", len(tot.ByClass))
	}
}

func TestApplyRuleFrequencies(t *testing.T) {
	chip := dvfs.Broadwell()
	pl := campaign(t, chip).ApplyRule(PaperRule(), chip)
	for _, p := range pl.Phases {
		switch p.Class {
		case Compute:
			if p.FreqGHz != chip.BaseGHz {
				t.Errorf("compute tuned to %v", p.FreqGHz)
			}
		case Compression:
			if math.Abs(p.FreqGHz-1.75) > 1e-9 {
				t.Errorf("compression at %v, want 1.75", p.FreqGHz)
			}
		case Writing:
			if math.Abs(p.FreqGHz-1.70) > 1e-9 {
				t.Errorf("writing at %v, want 1.70", p.FreqGHz)
			}
		}
	}
	// ApplyRule must not mutate the original plan.
	orig := campaign(t, chip)
	_ = orig.ApplyRule(PaperRule(), chip)
	for _, p := range orig.Phases {
		if p.FreqGHz != 0 {
			t.Fatal("ApplyRule mutated source plan")
		}
	}
}

func TestCompareSavesEnergyWithoutTouchingCompute(t *testing.T) {
	chip := dvfs.Skylake()
	node := machine.NewNode(chip, 1)
	pl := campaign(t, chip)
	cmp, err := Compare(pl, PaperRule(), node)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.EnergySavedPct() <= 0 {
		t.Fatalf("tuning lost energy: %+v", cmp)
	}
	if cmp.RuntimeIncreasePct() < 0 || cmp.RuntimeIncreasePct() > 5 {
		t.Fatalf("campaign slowdown %.2f%% out of band (I/O is a small share)",
			cmp.RuntimeIncreasePct())
	}
	// Compute phases are identical in both schedules.
	if math.Abs(cmp.Base.ByClass[Compute].Joules-cmp.Tuned.ByClass[Compute].Joules) > 1e-6 {
		t.Fatal("tuning changed compute energy")
	}
	// I/O classes saved energy.
	for _, cl := range []Class{Compression, Writing} {
		if cmp.Tuned.ByClass[cl].Joules >= cmp.Base.ByClass[cl].Joules {
			t.Errorf("%v phase did not save energy", cl)
		}
	}
}

func TestComputeFrequencyScaling(t *testing.T) {
	chip := dvfs.Broadwell()
	node := machine.NewNode(chip, 1)
	pl := Plan{Phases: []Phase{{Name: "c", Class: Compute, ComputeSeconds: 100, FreqGHz: 1.0}}}
	tot, err := pl.Execute(node)
	if err != nil {
		t.Fatal(err)
	}
	// 100 s at base 2.0 GHz becomes 200 s at 1.0 GHz.
	if math.Abs(tot.Seconds-200) > 1e-9 {
		t.Fatalf("compute at half clock took %.1f s, want 200", tot.Seconds)
	}
}

func TestValidation(t *testing.T) {
	chip := dvfs.Broadwell()
	node := machine.NewNode(chip, 1)
	bad := Plan{Phases: []Phase{{Name: "x", Class: Compute, ComputeSeconds: -1}}}
	if _, err := bad.Execute(node); err == nil {
		t.Fatal("negative compute accepted")
	}
	unk := Plan{Phases: []Phase{{Name: "y", Class: Class(9)}}}
	if _, err := unk.Execute(node); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestClassString(t *testing.T) {
	if Compute.String() != "compute" || Compression.String() != "compression" ||
		Writing.String() != "writing" {
		t.Fatal("class names")
	}
	if Class(7).String() == "" {
		t.Fatal("unknown class renders empty")
	}
}

func TestRepeatSemantics(t *testing.T) {
	chip := dvfs.Broadwell()
	node := machine.NewNode(chip, 1)
	once := Plan{Phases: []Phase{{Class: Compute, ComputeSeconds: 10}}}
	thrice := Plan{Phases: []Phase{{Class: Compute, ComputeSeconds: 10, Repeat: 3}}}
	a, _ := once.Execute(node)
	b, _ := thrice.Execute(node)
	if math.Abs(b.Seconds-3*a.Seconds) > 1e-9 {
		t.Fatalf("repeat: %v vs 3x%v", b.Seconds, a.Seconds)
	}
}

func TestCheckpointRestartCampaign(t *testing.T) {
	chip := dvfs.Skylake()
	pr := NewPricer(chip, PaperRule())
	cw, err := pr.Compress("sz", 8<<30, 1e-3, 9)
	if err != nil {
		t.Fatal(err)
	}
	dw, err := pr.Decompress("sz", 8<<30, 1e-3, 9)
	if err != nil {
		t.Fatal(err)
	}
	wt := pr.Move(nfs.DefaultMount().Write, 1<<30)
	rt := pr.Move(nfs.DefaultMount().Read, 1<<30)
	pl := Campaign(4, 300, cw, wt, rt, dw)
	if len(pl.Phases) != 5 {
		t.Fatalf("got %d phases", len(pl.Phases))
	}
	wantClass := []Class{Compute, Compression, Writing, Writing, Compression}
	for i, p := range pl.Phases {
		if p.Class != wantClass[i] {
			t.Fatalf("phase %d %q class %v, want %v", i, p.Name, p.Class, wantClass[i])
		}
		if p.repeats() != 4 {
			t.Fatalf("phase %d repeats %d, want 4", i, p.repeats())
		}
	}
	node := machine.NewNode(chip, 1)
	ckptOnly := Campaign(4, 300, cw, wt)
	full, err := pl.Execute(node)
	if err != nil {
		t.Fatal(err)
	}
	part, err := ckptOnly.Execute(node)
	if err != nil {
		t.Fatal(err)
	}
	if full.Seconds <= part.Seconds || full.Joules <= part.Joules {
		t.Fatal("restart legs should add time and energy over checkpoint-only")
	}
	cmp, err := Compare(pl, PaperRule(), node)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.EnergySavedPct() <= 0 {
		t.Fatalf("tuned restart campaign saved %.2f%%", cmp.EnergySavedPct())
	}
}
