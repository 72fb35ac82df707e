package core

import (
	"fmt"
	"sort"

	"lcpio/internal/perf"
	"lcpio/internal/stats"
)

// Series is one plotted trend of Figures 1-4: scaled Y against frequency,
// with a 95% confidence band.
type Series struct {
	Label string
	Freq  []float64
	Y     []float64
	CI    []float64
}

// Min returns the minimum Y and the frequency where it occurs.
func (s Series) Min() (freq, y float64) {
	if len(s.Y) == 0 {
		return 0, 0
	}
	mi := 0
	for i := range s.Y {
		if s.Y[i] < s.Y[mi] {
			mi = i
		}
	}
	return s.Freq[mi], s.Y[mi]
}

// Extract turns one sweep into the scaled curve a figure plots. The
// method expressions perf.Sweep.ScaledPower (Figures 1 and 3) and
// perf.Sweep.ScaledRuntime (Figures 2 and 4) are Extracts, and so is
// ScaledEnergy.
type Extract func(perf.Sweep) ([]float64, error)

// averageSeries pools scaled curves from several sweeps that share a
// frequency grid: Y is the pointwise mean and CI the 95% band across
// sweeps (the spread the paper shades around each trend).
func averageSeries(label string, sweeps []perf.Sweep, extract Extract) (Series, error) {
	if len(sweeps) == 0 {
		return Series{}, fmt.Errorf("core: no sweeps for series %q", label)
	}
	freqs := sweeps[0].Frequencies()
	vals := make([][]float64, len(freqs))
	for _, sw := range sweeps {
		if len(sw.Points) != len(freqs) {
			return Series{}, fmt.Errorf("core: series %q mixes frequency grids", label)
		}
		ys, err := extract(sw)
		if err != nil {
			return Series{}, err
		}
		for i, y := range ys {
			vals[i] = append(vals[i], y)
		}
	}
	out := Series{Label: label, Freq: freqs,
		Y: make([]float64, len(freqs)), CI: make([]float64, len(freqs))}
	for i, vs := range vals {
		out.Y[i] = stats.Mean(vs)
		out.CI[i] = stats.CI95(vs)
	}
	return out, nil
}

// trendOf names the trend an entry belongs to: chip and compressor for a
// compression entry, the chip alone for a data-writing one.
func trendOf(e Entry) Partition {
	p := Partition{Name: e.Chip, Codec: e.Codec, Chip: e.Chip}
	if e.Codec != "" {
		p.Name += " " + e.Codec
	}
	return p
}

// Characteristics builds the figure of a study under extract: one series
// per chip x compressor (Figures 1-2) or per chip (Figures 3-4), in label
// order, each averaged over the datasets and error bounds, or payload
// sizes, whose trends the paper found indistinguishable after scaling.
func (s *Study) Characteristics(extract Extract) ([]Series, error) {
	parts := s.groupBy(trendOf)
	sort.Slice(parts, func(i, j int) bool { return parts[i].Name < parts[j].Name })
	out := make([]Series, 0, len(parts))
	for _, p := range parts {
		ser, err := averageSeries(p.Name, s.Select(p).Sweeps(), extract)
		if err != nil {
			return nil, err
		}
		out = append(out, ser)
	}
	return out, nil
}

// ScaledEnergy is the Extract of the energy-vs-frequency trend (scaled by
// the max-frequency energy): the curve whose interior minimum justifies
// Eqn 3's trade-off. Not a paper figure, but directly implied by its
// Section V-A3 discussion.
func ScaledEnergy(sw perf.Sweep) ([]float64, error) {
	ref, err := sw.MaxFreqPoint()
	if err != nil {
		return nil, err
	}
	return stats.ScaleBy(sw.MeanEnergy(), ref.Energy.Mean), nil
}
