package machine

import (
	"math"
	"testing"

	"lcpio/internal/dvfs"
	"lcpio/internal/nfs"
)

func compressWL(t *testing.T, chip *dvfs.Chip, codec string, relEB float64) Workload {
	t.Helper()
	w, err := CompressionWorkloadWithRatio(codec, 1<<30, relEB, 8, chip)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestCompressionWorkloadValidation(t *testing.T) {
	bw := dvfs.Broadwell()
	if _, err := CompressionWorkloadWithRatio("lz4", 100, 1e-3, 8, bw); err == nil {
		t.Error("unknown codec accepted")
	}
	if _, err := CompressionWorkloadWithRatio("sz", -1, 1e-3, 8, bw); err == nil {
		t.Error("negative size accepted")
	}
	w, err := CompressionWorkloadWithRatio("sz", 0, 1e-3, 8, bw)
	if err != nil || w.CPUCycles != 0 {
		t.Errorf("zero-size workload: %+v err %v", w, err)
	}
}

func TestFinerBoundCostsMoreCycles(t *testing.T) {
	bw := dvfs.Broadwell()
	coarse := compressWL(t, bw, "sz", 1e-1)
	fine := compressWL(t, bw, "sz", 1e-4)
	if fine.CPUCycles <= coarse.CPUCycles {
		t.Errorf("finer bound should cost more cycles: %g vs %g", fine.CPUCycles, coarse.CPUCycles)
	}
}

func TestZFPCheaperThanSZ(t *testing.T) {
	bw := dvfs.Broadwell()
	sz := compressWL(t, bw, "sz", 1e-3)
	zf := compressWL(t, bw, "zfp", 1e-3)
	if zf.CPUCycles >= sz.CPUCycles {
		t.Errorf("zfp should be cheaper: %g vs %g", zf.CPUCycles, sz.CPUCycles)
	}
}

func TestSkylakeIPCAdvantage(t *testing.T) {
	bwW := compressWL(t, dvfs.Broadwell(), "sz", 1e-3)
	skW := compressWL(t, dvfs.Skylake(), "sz", 1e-3)
	if skW.CPUCycles >= bwW.CPUCycles {
		t.Errorf("Skylake should need fewer cycles: %g vs %g", skW.CPUCycles, bwW.CPUCycles)
	}
}

func TestRunCleanDeterministic(t *testing.T) {
	bw := dvfs.Broadwell()
	w := compressWL(t, bw, "sz", 1e-3)
	n := NewNode(bw, 1)
	a := n.RunClean(w, 1.5)
	b := n.RunClean(w, 1.5)
	if a != b {
		t.Fatalf("RunClean not deterministic: %+v vs %+v", a, b)
	}
	if a.Seconds <= 0 || a.Joules <= 0 || a.AvgWatts <= 0 {
		t.Fatalf("degenerate sample: %+v", a)
	}
}

func TestRunNoiseIsSmallAndSeeded(t *testing.T) {
	bw := dvfs.Broadwell()
	w := compressWL(t, bw, "sz", 1e-3)
	clean := NewNode(bw, 7).RunClean(w, 2.0)
	n1 := NewNode(bw, 7)
	n2 := NewNode(bw, 7)
	for i := 0; i < 50; i++ {
		s1 := n1.Run(w, 2.0)
		s2 := n2.Run(w, 2.0)
		if s1 != s2 {
			t.Fatal("same seed must give identical noise")
		}
		if rel := math.Abs(s1.Seconds-clean.Seconds) / clean.Seconds; rel > 0.08 {
			t.Fatalf("noise too large: %.3f relative", rel)
		}
	}
}

func TestRuntimeDecreasesWithFrequency(t *testing.T) {
	for _, chip := range dvfs.Chips() {
		n := NewNode(chip, 1)
		w := compressWL(t, chip, "sz", 1e-3)
		prev := math.Inf(1)
		for _, f := range chip.Frequencies() {
			s := n.RunClean(w, f)
			if s.Seconds >= prev {
				t.Fatalf("%s: runtime not decreasing at %v GHz", chip.Series, f)
			}
			prev = s.Seconds
		}
	}
}

func TestEnergyRuntimePowerConsistent(t *testing.T) {
	chip := dvfs.Skylake()
	n := NewNode(chip, 3)
	w := compressWL(t, chip, "zfp", 1e-2)
	s := n.RunClean(w, 1.8)
	if math.Abs(s.AvgWatts*s.Seconds-s.Joules) > 1e-6*s.Joules {
		t.Fatalf("E != P*t: %v * %v != %v", s.AvgWatts, s.Seconds, s.Joules)
	}
	if s.PackageJoules <= s.DRAMJoules {
		t.Fatalf("package energy should dominate DRAM: %+v", s)
	}
}

// RunClean is the integral P·t written out per component, with nothing
// rounding or wrapping the result on the way to the caller.
func TestRunCleanIntegratesPowerOverTime(t *testing.T) {
	chip := dvfs.Broadwell()
	n := NewNode(chip, 1)
	const f = 1.75
	for _, bytes := range []int64{1, 1 << 10, 1 << 30, 1 << 50} {
		w, err := CompressionWorkloadWithRatio("sz", bytes, 1e-3, 8, chip)
		if err != nil {
			t.Fatal(err)
		}
		s := n.RunClean(w, f)
		busy, wait := w.CPUCycles/(f*1e9), w.StallSeconds
		wantPkg := chip.BusyPower(f)*busy + chip.MemWaitPower(f)*wait
		wantDRAM := dramIdleWatts*(busy+wait) + (dramActiveWatts-dramIdleWatts)*wait
		// Equal to rounding: no 61 uJ tick at 1 B, no wrap at 1 PiB.
		near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-14*want }
		if !near(s.Seconds, busy+wait) || s.CPUBusy != busy {
			t.Errorf("%d B: seconds %v, busy %v; want %v, %v", bytes, s.Seconds, s.CPUBusy, busy+wait, busy)
		}
		if !near(s.PackageJoules, wantPkg) || !near(s.DRAMJoules, wantDRAM) || s.Joules != s.PackageJoules+s.DRAMJoules {
			t.Errorf("%d B: package %v J, DRAM %v J, total %v J; want %v, %v, %v",
				bytes, s.PackageJoules, s.DRAMJoules, s.Joules, wantPkg, wantDRAM, wantPkg+wantDRAM)
		}
		if s.Joules <= 0 {
			t.Errorf("%d B: a run that takes %v s costs %v J", bytes, s.Seconds, s.Joules)
		}
	}
}

// A workload with a negative or NaN amount of work (its fields can come
// from a service frame) must not subtract energy or poison the total.
func TestRunCleanIgnoresNegativeAndNaNTerms(t *testing.T) {
	chip := dvfs.Skylake()
	n := NewNode(chip, 1)
	stall := Workload{Kind: KindCompress, StallSeconds: 2}
	want := n.RunClean(stall, chip.BaseGHz)
	if want.Joules <= 0 {
		t.Fatalf("a 2 s stall costs %v J", want.Joules)
	}
	for name, cycles := range map[string]float64{"negative": -1e12, "NaN": math.NaN()} {
		w := stall
		w.CPUCycles = cycles
		got := n.RunClean(w, chip.BaseGHz)
		if math.IsNaN(got.Joules) || got.Joules < 0 || got.PackageJoules < 0 || got.DRAMJoules < 0 {
			t.Errorf("%s cycles: %+v", name, got)
		}
		if got.Joules > want.Joules {
			t.Errorf("%s cycles cost %v J, more than the stall alone (%v J)", name, got.Joules, want.Joules)
		}
	}
}

// Calibration: compression runtime increase at the paper's tuned frequency
// (0.875 f_max) should sit near the paper's +7.5% (Section V-A3).
func TestCalibrationCompressionRuntime(t *testing.T) {
	var total float64
	for _, chip := range dvfs.Chips() {
		n := NewNode(chip, 1)
		w := compressWL(t, chip, "sz", 1e-3)
		base := n.RunClean(w, chip.BaseGHz)
		tuned := n.RunClean(w, 0.875*chip.BaseGHz)
		inc := tuned.Seconds/base.Seconds - 1
		if inc < 0.03 || inc > 0.14 {
			t.Errorf("%s: compression runtime increase %.1f%% outside [3,14]%%", chip.Series, inc*100)
		}
		total += inc
	}
	if avg := total / 2; avg < 0.05 || avg > 0.12 {
		t.Errorf("average compression runtime increase %.1f%% not near the paper's 7.5%%", avg*100)
	}
}

// Calibration: compression power savings at 0.875 f_max should land in the
// regime of the paper's fitted models (Broadwell ~13%, Skylake ~20%).
func TestCalibrationCompressionPower(t *testing.T) {
	savings := map[string]float64{}
	for _, chip := range dvfs.Chips() {
		n := NewNode(chip, 1)
		w := compressWL(t, chip, "sz", 1e-3)
		base := n.RunClean(w, chip.BaseGHz)
		tuned := n.RunClean(w, 0.875*chip.BaseGHz)
		savings[chip.Series] = 1 - tuned.AvgWatts/base.AvgWatts
	}
	if s := savings["Broadwell"]; s < 0.06 || s > 0.22 {
		t.Errorf("Broadwell compression power savings %.1f%% outside [6,22]%%", s*100)
	}
	if s := savings["Skylake"]; s < 0.10 || s > 0.30 {
		t.Errorf("Skylake compression power savings %.1f%% outside [10,30]%%", s*100)
	}
	if savings["Skylake"] <= savings["Broadwell"] {
		t.Errorf("Skylake knee should yield larger savings at -12.5%%: %v", savings)
	}
}

// Calibration: data-transit runtime at 0.85 f_max — Broadwell rises
// noticeably, Skylake stays nearly flat (the paper's stagnant Skylake
// writes), averaging near the paper's +9.3%.
func TestCalibrationTransitRuntime(t *testing.T) {
	tr := nfs.DefaultMount().Write(4 << 30)
	inc := map[string]float64{}
	for _, chip := range dvfs.Chips() {
		n := NewNode(chip, 1)
		w := TransitWorkload(tr, chip)
		base := n.RunClean(w, chip.BaseGHz)
		tuned := n.RunClean(w, 0.85*chip.BaseGHz)
		inc[chip.Series] = tuned.Seconds/base.Seconds - 1
	}
	if v := inc["Broadwell"]; v < 0.04 || v > 0.18 {
		t.Errorf("Broadwell transit runtime increase %.1f%% outside [4,18]%%", v*100)
	}
	if v := inc["Skylake"]; v < 0 || v > 0.09 {
		t.Errorf("Skylake transit runtime increase %.1f%% should be nearly flat", v*100)
	}
	if inc["Skylake"] >= inc["Broadwell"] {
		t.Errorf("Skylake transit runtime should be flatter than Broadwell: %v", inc)
	}
}

// Calibration: data-transit power savings at 0.85 f_max near the paper's
// 11.2%, and transit's scaled-power floor above compression's (Fig 3 vs 1).
func TestCalibrationTransitPower(t *testing.T) {
	tr := nfs.DefaultMount().Write(4 << 30)
	var totalSavings float64
	for _, chip := range dvfs.Chips() {
		n := NewNode(chip, 1)
		w := TransitWorkload(tr, chip)
		base := n.RunClean(w, chip.BaseGHz)
		tuned := n.RunClean(w, 0.85*chip.BaseGHz)
		s := 1 - tuned.AvgWatts/base.AvgWatts
		if s < 0.04 || s > 0.30 {
			t.Errorf("%s transit power savings %.1f%% outside [4,30]%%", chip.Series, s*100)
		}
		totalSavings += s
	}
	if avg := totalSavings / 2; avg < 0.06 || avg > 0.25 {
		t.Errorf("average transit power savings %.1f%% not near the paper's 11.2%%", avg*100)
	}
}

// The tuned point must save net energy for compression (power drops faster
// than runtime rises) — the premise of the whole paper.
func TestTunedPointSavesEnergy(t *testing.T) {
	for _, chip := range dvfs.Chips() {
		n := NewNode(chip, 1)
		w := compressWL(t, chip, "sz", 1e-3)
		base := n.RunClean(w, chip.BaseGHz)
		tuned := n.RunClean(w, 0.875*chip.BaseGHz)
		if tuned.Joules >= base.Joules {
			t.Errorf("%s: tuned energy %.1f J not below base %.1f J",
				chip.Series, tuned.Joules, base.Joules)
		}
	}
}

func TestTransitWorkloadScalesWithBytes(t *testing.T) {
	chip := dvfs.Broadwell()
	small := TransitWorkload(nfs.DefaultMount().Write(1<<20), chip)
	big := TransitWorkload(nfs.DefaultMount().Write(1<<30), chip)
	if big.CPUCycles <= small.CPUCycles || big.StallSeconds <= small.StallSeconds {
		t.Fatalf("transit workload not scaling: %+v vs %+v", small, big)
	}
}

func TestKindString(t *testing.T) {
	if KindCompress.String() != "compress" || KindTransit.String() != "transit" {
		t.Fatal("Kind names")
	}
}

func TestPnorm3(t *testing.T) {
	if v := pnorm3(3, 0); math.Abs(v-3) > 1e-12 {
		t.Fatalf("pnorm3(3,0) = %v", v)
	}
	if v := pnorm3(0, 4); math.Abs(v-4) > 1e-12 {
		t.Fatalf("pnorm3(0,4) = %v", v)
	}
	v := pnorm3(1, 1)
	if v <= 1 || v >= 2 {
		t.Fatalf("pnorm3(1,1) = %v, want in (1,2)", v)
	}
}

func BenchmarkRunClean(b *testing.B) {
	chip := dvfs.Skylake()
	n := NewNode(chip, 1)
	w, err := CompressionWorkloadWithRatio("sz", 1<<30, 1e-3, 8, chip)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		n.RunClean(w, 1.6)
	}
}

func TestDecompressionCheaperThanCompression(t *testing.T) {
	chip := dvfs.Broadwell()
	cw, err := CompressionWorkloadWithRatio("sz", 1<<30, 1e-3, 8, chip)
	if err != nil {
		t.Fatal(err)
	}
	dw, err := DecompressionWorkload("sz", 1<<30, 1e-3, 8, chip)
	if err != nil {
		t.Fatal(err)
	}
	if dw.CPUCycles >= cw.CPUCycles {
		t.Fatalf("decompression cycles %g not below compression %g", dw.CPUCycles, cw.CPUCycles)
	}
	if dw.StallSeconds != cw.StallSeconds {
		t.Fatalf("decompression stalls changed: %g vs %g", dw.StallSeconds, cw.StallSeconds)
	}
	if _, err := DecompressionWorkload("nope", 1, 1e-3, 8, chip); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestHarderDataCostsMoreCycles(t *testing.T) {
	chip := dvfs.Broadwell()
	easy, err := CompressionWorkloadWithRatio("sz", 1<<30, 1e-3, 50, chip)
	if err != nil {
		t.Fatal(err)
	}
	hard, err := CompressionWorkloadWithRatio("sz", 1<<30, 1e-3, 1.5, chip)
	if err != nil {
		t.Fatal(err)
	}
	if hard.CPUCycles <= easy.CPUCycles {
		t.Fatalf("hard data (ratio 1.5) should cost more than easy (ratio 50): %g vs %g",
			hard.CPUCycles, easy.CPUCycles)
	}
}

func TestMultiCoreScaling(t *testing.T) {
	chip := dvfs.Skylake()
	node := NewNode(chip, 1)
	w, err := CompressionWorkloadWithRatio("sz", 8<<30, 1e-3, 9, chip)
	if err != nil {
		t.Fatal(err)
	}
	single := node.RunClean(w, chip.BaseGHz)
	quad := node.RunClean(w.WithCores(4), chip.BaseGHz)
	// Near-linear speedup of the CPU part, bounded by the serial fraction
	// and the frequency-independent stalls.
	if quad.Seconds >= single.Seconds {
		t.Fatalf("4 cores not faster: %.2f vs %.2f", quad.Seconds, single.Seconds)
	}
	if quad.Seconds < single.Seconds/4 {
		t.Fatalf("superlinear speedup: %.2f vs %.2f", quad.Seconds, single.Seconds)
	}
	// Average power rises with active cores.
	if quad.AvgWatts <= single.AvgWatts {
		t.Fatalf("4-core power %.1f not above single-core %.1f", quad.AvgWatts, single.AvgWatts)
	}
}

func TestMultiCoreEnergyTradeoff(t *testing.T) {
	// Static power amortizes over shorter runs: parallel compression
	// should cost LESS total energy than single core at the same
	// frequency (race-to-idle within the job), with diminishing returns.
	chip := dvfs.Broadwell()
	node := NewNode(chip, 1)
	w, err := CompressionWorkloadWithRatio("sz", 8<<30, 1e-3, 9, chip)
	if err != nil {
		t.Fatal(err)
	}
	e1 := node.RunClean(w, chip.BaseGHz).Joules
	e4 := node.RunClean(w.WithCores(4), chip.BaseGHz).Joules
	if e4 >= e1 {
		t.Fatalf("4-core energy %.0f not below single-core %.0f (static should amortize)", e4, e1)
	}
}

func TestWithCoresClamps(t *testing.T) {
	w := Workload{CPUCycles: 100}
	if w.WithCores(0).Cores != 1 || w.WithCores(-3).Cores != 1 {
		t.Fatal("WithCores must clamp to 1")
	}
	if w.Cores != 0 {
		t.Fatal("WithCores must not mutate the receiver")
	}
}
