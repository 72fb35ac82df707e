package core

import (
	"strings"
	"testing"

	"lcpio/internal/advisor"
)

func minPSNR(db float64) AdvisorConfig {
	return AdvisorConfig{GridOptions: advisor.GridOptions{MinPSNR: db}}
}

func TestAdviseRanksByEnergy(t *testing.T) {
	all, err := Advise(testConfig(), minPSNR(60))
	if err != nil {
		t.Fatal(err)
	}
	// 2 codecs x 4 bounds.
	if len(all) != 8 {
		t.Fatalf("advice count %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].EnergyJ < all[i-1].EnergyJ {
			t.Fatalf("not sorted by energy at %d", i)
		}
	}
	for _, a := range all {
		if a.EnergyJ <= 0 || a.Ratio <= 1 || a.Seconds <= 0 {
			t.Fatalf("degenerate advice: %+v", a)
		}
	}
}

func TestAdviceQualityMonotone(t *testing.T) {
	all, err := Advise(testConfig(), minPSNR(0))
	if err != nil {
		t.Fatal(err)
	}
	// Per codec, finer bounds give higher PSNR and cost more energy.
	byCodec := map[string]map[float64]Advice{}
	for _, a := range all {
		if byCodec[a.Codec] == nil {
			byCodec[a.Codec] = map[float64]Advice{}
		}
		byCodec[a.Codec][a.RelEB] = a
	}
	for codec, m := range byCodec {
		if m[1e-4].PSNR <= m[1e-1].PSNR {
			t.Errorf("%s: finer bound did not raise PSNR: %v vs %v",
				codec, m[1e-4].PSNR, m[1e-1].PSNR)
		}
		if m[1e-4].EnergyJ <= m[1e-1].EnergyJ {
			t.Errorf("%s: finer bound did not cost more energy", codec)
		}
	}
}

func TestRecommendMeetsFloor(t *testing.T) {
	rec, err := Recommend(testConfig(), minPSNR(60))
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Meets || rec.PSNR < 60 {
		t.Fatalf("recommendation below floor: %+v", rec)
	}
	// It must be the cheapest qualifying option: every cheaper one fails
	// the floor.
	all, _ := Advise(testConfig(), minPSNR(60))
	for _, a := range all {
		if a.EnergyJ < rec.EnergyJ && a.Meets {
			t.Fatalf("cheaper qualifying advice exists: %+v", a)
		}
	}
}

func TestRecommendImpossibleFloor(t *testing.T) {
	_, err := Recommend(testConfig(), minPSNR(500))
	if err == nil {
		t.Fatal("unreachable PSNR floor accepted")
	}
	// The error must name the best candidate, not just its dB value.
	msg := err.Error()
	if !strings.Contains(msg, "eb=") || !(strings.Contains(msg, "sz") || strings.Contains(msg, "zfp")) {
		t.Fatalf("error does not name the best codec/bound: %q", msg)
	}
}

func TestAdviseValidation(t *testing.T) {
	if _, err := Advise(testConfig(), AdvisorConfig{GridOptions: advisor.GridOptions{Chip: "EPYC"}}); err == nil {
		t.Fatal("unknown chip accepted")
	}
	if _, err := Advise(testConfig(), AdvisorConfig{Dataset: "nope"}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}
