package advisor

import (
	"math"
	"os"
	"testing"

	"lcpio/internal/compress"
	"lcpio/internal/fpdata"
)

// TestCalibrationReport prints predicted vs measured (ratio, PSNR) for the
// full recipe × codec × bound matrix. It is the harness the calib table in
// sketch.go was tuned with; set LCPIO_CALIB=1 to re-run it after touching
// the codecs or the generators.
func TestCalibrationReport(t *testing.T) {
	if os.Getenv("LCPIO_CALIB") == "" {
		t.Skip("calibration harness; set LCPIO_CALIB=1 to run")
	}
	specs := append(fpdata.TableI(), fpdata.IsabelFields()...)
	for _, spec := range specs {
		f := fpdata.Generate(spec, spec.ScaleFor(1<<18), 42)
		sk, err := NewSketch(f.Data, f.Dims, SketchConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, codecName := range []string{"sz", "zfp", "squant"} {
			codec, err := compress.NewHandle(codecName, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, rel := range compress.PaperErrorBounds {
				pred, err := sk.Predict(codecName, rel)
				if err != nil {
					t.Fatal(err)
				}
				eb := compress.AbsBoundFromRelative(rel, f.Data)
				res, err := compress.Evaluate(codec, f.Data, f.Dims, eb)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%-16s %-6s eb=%-6g ratio pred=%7.2f meas=%7.2f (%+6.1f%%)  psnr pred=%6.1f meas=%6.1f (%+5.1f dB)",
					spec.Dataset+"/"+spec.Field, codecName, rel,
					pred.Ratio, res.Ratio(), 100*(pred.Ratio/res.Ratio()-1),
					pred.PSNR, res.PSNR, pred.PSNR-res.PSNR)
				_ = math.Abs
			}
		}
	}
}
