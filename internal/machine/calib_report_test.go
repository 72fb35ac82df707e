package machine

import (
	"testing"

	"lcpio/internal/dvfs"
	"lcpio/internal/nfs"
)

// TestCalibrationReport logs the headline sensitivities so calibration
// drift is visible in -v output; assertions live in the sibling tests.
func TestCalibrationReport(t *testing.T) {
	tr := nfs.DefaultMount().Write(4 << 30)
	for _, chip := range dvfs.Chips() {
		n := NewNode(chip, 1)
		cw, _ := CompressionWorkloadWithRatio("sz", 1<<30, 1e-3, 8, chip)
		cb := n.RunClean(cw, chip.BaseGHz)
		ct := n.RunClean(cw, 0.875*chip.BaseGHz)
		cf := n.RunClean(cw, chip.MinGHz)
		ww := TransitWorkload(tr, chip)
		wb := n.RunClean(ww, chip.BaseGHz)
		wt := n.RunClean(ww, 0.85*chip.BaseGHz)
		wf := n.RunClean(ww, chip.MinGHz)
		t.Logf("%s compress: dP=%.1f%% dt=%.1f%% dE=%.1f%% floorP=%.2f",
			chip.Series, 100*(1-ct.AvgWatts/cb.AvgWatts), 100*(ct.Seconds/cb.Seconds-1),
			100*(1-ct.Joules/cb.Joules), cf.AvgWatts/cb.AvgWatts)
		t.Logf("%s transit:  dP=%.1f%% dt=%.1f%% dE=%.1f%% floorP=%.2f",
			chip.Series, 100*(1-wt.AvgWatts/wb.AvgWatts), 100*(wt.Seconds/wb.Seconds-1),
			100*(1-wt.Joules/wb.Joules), wf.AvgWatts/wb.AvgWatts)
	}
}
