package perf

import (
	"encoding/csv"
	"math"
	"strings"
	"testing"

	"lcpio/internal/dvfs"
	"lcpio/internal/machine"
)

func sweepFor(t *testing.T, chip *dvfs.Chip, seed int64, reps int) Sweep {
	t.Helper()
	node := machine.NewNode(chip, seed)
	w, err := machine.CompressionWorkloadWithRatio("sz", 256<<20, 1e-3, 8, chip)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Run(node, w, "sz/"+chip.Series, reps)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func TestSweepCoversFullGrid(t *testing.T) {
	chip := dvfs.Broadwell()
	sw := sweepFor(t, chip, 1, 0)
	if len(sw.Points) != len(chip.Frequencies()) {
		t.Fatalf("sweep has %d points, grid has %d", len(sw.Points), len(chip.Frequencies()))
	}
	if sw.Chip != "Broadwell" {
		t.Fatalf("chip label %q", sw.Chip)
	}
	for _, p := range sw.Points {
		if p.Power.N != DefaultRepetitions {
			t.Fatalf("point at %v has %d reps", p.FreqGHz, p.Power.N)
		}
		if p.Power.Mean <= 0 || p.Runtime.Mean <= 0 || p.Energy.Mean <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
}

func TestScaledPowerEndsAtOne(t *testing.T) {
	sw := sweepFor(t, dvfs.Broadwell(), 2, 0)
	scaled, err := sw.ScaledPower()
	if err != nil {
		t.Fatal(err)
	}
	last := scaled[len(scaled)-1]
	if math.Abs(last-1) > 1e-9 {
		t.Fatalf("scaled power at fmax = %v, want 1", last)
	}
	// The paper's Figure 1 shape: scaled power stays within (0.5, 1.05)
	// and the minimum sits at the lowest frequency.
	minIdx := 0
	for i, v := range scaled {
		if v < scaled[minIdx] {
			minIdx = i
		}
		if v < 0.5 || v > 1.05 {
			t.Fatalf("scaled power %v out of regime at %v GHz", v, sw.Points[i].FreqGHz)
		}
	}
	if minIdx != 0 {
		t.Fatalf("power minimum at index %d, want lowest frequency", minIdx)
	}
}

func TestScaledRuntimeMinimumAtMaxFreq(t *testing.T) {
	sw := sweepFor(t, dvfs.Skylake(), 3, 0)
	scaled, err := sw.ScaledRuntime()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(scaled[len(scaled)-1]-1) > 1e-9 {
		t.Fatalf("scaled runtime at fmax = %v", scaled[len(scaled)-1])
	}
	for i := 0; i < len(scaled)-1; i++ {
		if scaled[i] < 1 {
			t.Fatalf("runtime below reference at %v GHz: %v (noise beyond model?)",
				sw.Points[i].FreqGHz, scaled[i])
		}
	}
}

func TestMaxFreqPoint(t *testing.T) {
	sw := Sweep{Points: []Point{{FreqGHz: 1.0}, {FreqGHz: 2.0}, {FreqGHz: 1.5}}}
	p, err := sw.MaxFreqPoint()
	if err != nil || p.FreqGHz != 2.0 {
		t.Fatalf("MaxFreqPoint: %+v %v", p, err)
	}
	if _, err := (Sweep{}).MaxFreqPoint(); err == nil {
		t.Fatal("empty sweep accepted")
	}
}

func TestScaledObservations(t *testing.T) {
	sw := sweepFor(t, dvfs.Broadwell(), 5, 2)
	fs, ps, err := sw.ScaledObservations()
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != len(ps) || len(fs) != len(sw.Points) {
		t.Fatalf("observation lengths %d %d", len(fs), len(ps))
	}
}

func TestEmptyGridRejected(t *testing.T) {
	// A hand-built chip whose minimum clock sits above its base clock has
	// no P-states to sweep.
	chip := *dvfs.Broadwell()
	chip.MinGHz = chip.BaseGHz + 1
	w, err := machine.CompressionWorkloadWithRatio("sz", 1<<20, 1e-3, 8, &chip)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(machine.NewNode(&chip, 1), w, "x", 0); err == nil {
		t.Fatal("empty frequency grid swept")
	}
}

func TestMeanAccessorsAligned(t *testing.T) {
	sw := sweepFor(t, dvfs.Skylake(), 6, 2)
	if len(sw.MeanPower()) != len(sw.MeanRuntime()) ||
		len(sw.MeanRuntime()) != len(sw.MeanEnergy()) ||
		len(sw.MeanEnergy()) != len(sw.Frequencies()) {
		t.Fatal("accessor lengths differ")
	}
}

func TestWriteCSV(t *testing.T) {
	// A two-P-state chip keeps the expected row count readable.
	chip := *dvfs.Broadwell()
	chip.MinGHz = chip.BaseGHz - dvfs.StepGHz
	sw := sweepFor(t, &chip, 9, 2)
	var buf strings.Builder
	if err := WriteCSV(&buf, sw, sw); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// header + 2 sweeps x 2 points
	if len(lines) != 5 {
		t.Fatalf("CSV has %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "label,chip,freq_ghz") {
		t.Fatalf("header: %s", lines[0])
	}
	rec, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatalf("CSV does not re-parse: %v", err)
	}
	if len(rec[1]) != 10 {
		t.Fatalf("row width %d", len(rec[1]))
	}
}
