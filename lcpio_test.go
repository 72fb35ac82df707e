package lcpio

import (
	"math"
	"testing"
)

// TestPublicAPICompressionFlow exercises the facade the way the README's
// quickstart does.
func TestPublicAPICompressionFlow(t *testing.T) {
	spec := TableI()[2] // NYX
	field := GenerateField(spec, spec.ScaleFor(1<<14), 42)
	eb := AbsBoundFromRelative(1e-3, field.Data)
	for _, name := range CodecNames() {
		codec, err := LookupCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Evaluate(codec, field.Data, field.Dims, eb)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.MaxAbsError > eb {
			t.Errorf("%s: bound violated: %g > %g", name, res.MaxAbsError, eb)
		}
		if res.Ratio() <= 1 {
			t.Errorf("%s: no compression", name)
		}
	}
}

func TestPublicAPIHardware(t *testing.T) {
	if len(Chips()) != 2 {
		t.Fatal("chip matrix")
	}
	g := NewGovernor(Broadwell())
	if f := g.SetScaled(PaperRecommendation().CompressionFraction); math.Abs(f-1.75) > 1e-9 {
		t.Fatalf("tuned frequency %v", f)
	}
	if Skylake().BaseGHz != 2.2 {
		t.Fatal("Skylake base clock")
	}
}

func TestPublicAPIModelFit(t *testing.T) {
	fs := []float64{0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0}
	ps := make([]float64, len(fs))
	for i, f := range fs {
		ps[i] = 0.01*math.Pow(f, 5) + 0.75
	}
	fit, err := FitPowerLaw(fs, ps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.B-5) > 0.2 {
		t.Fatalf("exponent %v", fit.B)
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	cfg := Config{Seed: 5, Repetitions: 2, RatioElems: 1 << 13}
	h, err := ComputeHeadlines(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.AvgEnergySavingsPct <= 0 || h.DumpSavedKJ <= 0 {
		t.Fatalf("headlines: %+v", h)
	}
	if h.Derived.CompressionFraction <= 0.5 || h.Derived.CompressionFraction >= 1 {
		t.Fatalf("derived rule: %+v", h.Derived)
	}
}

func TestPaperErrorBoundsExposed(t *testing.T) {
	if len(PaperErrorBounds) != 4 || PaperErrorBounds[0] != 1e-1 {
		t.Fatalf("PaperErrorBounds = %v", PaperErrorBounds)
	}
}

func TestIsabelExposed(t *testing.T) {
	if len(IsabelFields()) != 6 {
		t.Fatal("ISABEL registry")
	}
}

func TestRunStudiesViaFacade(t *testing.T) {
	cfg := Config{Seed: 2, Repetitions: 2, RatioElems: 1 << 13}
	cs, err := RunCompressionStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := RunTransitStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DeriveRecommendation(cs, ts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CompressionFraction <= 0 || rec.WritingFraction <= 0 {
		t.Fatalf("recommendation: %+v", rec)
	}
}

func TestPublicAPIFloat64(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	buf, err := Compress64("sz", data, []int{8}, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Decompress64("sz", buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if d := out[i] - data[i]; d > 1e-10 || d < -1e-10 {
			t.Fatalf("bound violated at %d", i)
		}
	}
}

func TestFacadeExtensions(t *testing.T) {
	// Container round trip through the facade.
	data := make([]float32, 4096)
	for i := range data {
		data[i] = float32(i % 31)
	}
	buf, err := Pack("sz", data, []int{4096}, 1e-3, PackOptions{ChunkElems: 1024})
	if err != nil {
		t.Fatal(err)
	}
	info, err := StatContainer(buf)
	if err != nil || info.NumChunks != 4 {
		t.Fatalf("stat: %+v err %v", info, err)
	}
	out, _, err := Unpack(buf, PackOptions{})
	if err != nil || len(out) != 4096 {
		t.Fatalf("unpack: %d err %v", len(out), err)
	}
	if _, _, start, err := ReadChunk(buf, 2); err != nil || start != 2048 {
		t.Fatalf("ReadChunk: start %d err %v", start, err)
	}

	// Cluster comparison through the facade.
	cmp, err := ClusterCompare(ClusterConfig{
		Nodes: 16, PerNodeBytes: 1 << 30, Ratio: 8,
	}, PaperRecommendation())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.CompressionSpeedup() <= 0 {
		t.Fatalf("cluster comparison: %+v", cmp)
	}

	// The advisor through the facade: the sketched pick heads its own
	// table, and the measured search over the same field prices its regret.
	field := make([]float32, 64*64)
	for i := range field {
		field[i] = float32(math.Sin(float64(i) / 40))
	}
	req := AdviceRequest{RawBytes: 1 << 30, MinPSNR: 40}
	rec, err := Recommend(field, []int{64, 64}, req)
	if err != nil {
		t.Fatal(err)
	}
	if rec.EnergyJ <= 0 || rec.Table[0].Codec != rec.Codec || rec.Table[0].RelEB != rec.RelEB {
		t.Fatalf("recommendation is not the head of its table: %+v", rec)
	}
	truth, err := Advise(field, []int{64, 64}, req)
	if err != nil {
		t.Fatal(err)
	}
	if truth.EnergyJ <= 0 || truth.Predicted.PSNR < req.MinPSNR {
		t.Fatalf("measured advice misses the floor: %+v", truth)
	}

	// Campaign planner through the facade.
	chip := Skylake()
	cw, err := CompressionWorkload("sz", 1<<30, 1e-3, 9, chip)
	if err != nil {
		t.Fatal(err)
	}
	plan := CheckpointCampaign(2, 60, cw, cw)
	if len(plan.Phases) != 3 {
		t.Fatalf("plan: %+v", plan)
	}
	node := NewNode(chip, 1)
	tuned := plan.ApplyRule(PhaseRule{CompressionFraction: 0.875, WritingFraction: 0.85}, chip)
	tot, err := tuned.Execute(node)
	if err != nil || tot.Joules <= 0 {
		t.Fatalf("execute: %+v err %v", tot, err)
	}
}

func TestFacadeReadPath(t *testing.T) {
	res, err := RunDataLoad(Config{Seed: 1, Repetitions: 2, RatioElems: 1 << 13}, DumpConfig{TotalBytes: 1 << 30})
	if err != nil || len(res) != 4 {
		t.Fatalf("RunDataLoad: %d err %v", len(res), err)
	}
}
