package core

import (
	"fmt"

	"lcpio/internal/compress"
	"lcpio/internal/dvfs"
	"lcpio/internal/fpdata"
	"lcpio/internal/nfs"
	"lcpio/internal/obs"
	"lcpio/internal/phases"
)

// DumpConfig describes the Section VI-B use case: compress a large field
// with SZ and push it to an NFS mount, at base clock and under Eqn 3.
type DumpConfig struct {
	// TotalBytes of uncompressed data; 0 means the paper's 512 GB.
	TotalBytes int64
	// Chip to run on; empty means Broadwell (the paper's model chip).
	Chip string
	// Codec; empty means "sz" as in the paper.
	Codec string
	// Dataset whose statistics set the compression ratio; empty means NYX
	// (the paper concatenates NYX velocity-x snapshots).
	Dataset string
	// Mount; zero value means nfs.DefaultMount.
	Mount nfs.Mount
}

func (d DumpConfig) normalized() DumpConfig {
	if d.TotalBytes <= 0 {
		d.TotalBytes = 512 << 30
	}
	if d.Chip == "" {
		d.Chip = "Broadwell"
	}
	if d.Codec == "" {
		d.Codec = "sz"
	}
	if d.Dataset == "" {
		d.Dataset = "NYX"
	}
	if d.Mount.WSize == 0 {
		d.Mount = nfs.DefaultMount()
	}
	return d
}

// DumpResult is one bar group of Figure 6: total energy at base clock
// versus the tuned schedule, per error bound.
type DumpResult struct {
	EB              float64 // range-relative error bound
	Ratio           float64 // measured compression ratio
	CompressedBytes int64

	BaseCompressJ  float64
	BaseTransitJ   float64
	TunedCompressJ float64
	TunedTransitJ  float64

	BaseSeconds  float64
	TunedSeconds float64
}

// BaseTotalJ is the untuned total energy.
func (r DumpResult) BaseTotalJ() float64 { return r.BaseCompressJ + r.BaseTransitJ }

// TunedTotalJ is the tuned total energy.
func (r DumpResult) TunedTotalJ() float64 { return r.TunedCompressJ + r.TunedTransitJ }

// SavedJ is the absolute energy saving.
func (r DumpResult) SavedJ() float64 { return r.BaseTotalJ() - r.TunedTotalJ() }

// SavedPct is the relative energy saving in percent.
func (r DumpResult) SavedPct() float64 {
	if r.BaseTotalJ() <= 0 {
		return 0
	}
	return 100 * r.SavedJ() / r.BaseTotalJ()
}

func (r DumpResult) String() string {
	return fmt.Sprintf("eb=%g ratio=%.1f: base %.1f kJ -> tuned %.1f kJ (saved %.1f kJ, %.1f%%)",
		r.EB, r.Ratio, r.BaseTotalJ()/1e3, r.TunedTotalJ()/1e3, r.SavedJ()/1e3, r.SavedPct())
}

// boundPrice is one error bound of a dump or load study: the measured
// ratio, and the two-stage pipeline priced at base clock and under Eqn 3.
type boundPrice struct {
	eb              float64
	ratio           float64
	compressedBytes int64
	base, tuned     phases.Totals
}

// priceBounds is the shared body of RunDataDump and RunDataLoad: for each
// of the paper's four error bounds, measure the real codec's compression ratio on a scaled
// field, build the study's pipeline for TotalBytes at that ratio, and price
// it untuned and tuned. what ("dump"/"load") names the spans and errors;
// pipeline gets the normalized dump config.
func priceBounds(cfg Config, dcfg DumpConfig, what string,
	pipeline func(pr *phases.Pricer, d DumpConfig, rel, ratio float64, compressedBytes int64) ([]phases.Phase, error)) ([]boundPrice, error) {
	cfg = cfg.normalized()
	dcfg = dcfg.normalized()

	chip, err := dvfs.ChipByName(dcfg.Chip)
	if err != nil {
		return nil, err
	}
	spec, err := fpdata.Lookup(dcfg.Dataset, "")
	if err != nil {
		return nil, err
	}
	codec, err := compress.NewHandle(dcfg.Codec, cfg.Workers)
	if err != nil {
		return nil, err
	}
	field := fpdata.Generate(spec, spec.ScaleFor(cfg.RatioElems), cfg.Seed)
	base := phases.NewPricer(chip, phases.BaseRule())
	tuned := phases.NewPricer(chip, phases.PaperRule())

	span := obs.Start("core.data" + what)
	defer span.End()
	obs.Add("lcpio_sweep_points_expected", int64(len(compress.PaperErrorBounds)))

	priceOne := func(rel float64) (boundPrice, error) {
		bspan := obs.Start("core." + what + "_bound")
		defer bspan.End()
		if bspan.Enabled() {
			bspan.SetAttr("eb", fmt.Sprintf("%g", rel))
		}
		eb := compress.AbsBoundFromRelative(rel, field.Data)
		res, err := compress.Evaluate(codec, field.Data, field.Dims, eb)
		if err != nil {
			return boundPrice{}, fmt.Errorf("core: %s codec run at eb=%g: %w", what, rel, err)
		}
		bp := boundPrice{eb: rel, ratio: res.Ratio()}
		bp.compressedBytes = int64(float64(dcfg.TotalBytes) / bp.ratio)
		stages, err := pipeline(base, dcfg, rel, bp.ratio, bp.compressedBytes)
		if err != nil {
			return boundPrice{}, err
		}
		if bp.base, err = base.Price(stages...); err != nil {
			return boundPrice{}, err
		}
		bp.tuned, err = tuned.Price(stages...)
		return bp, err
	}
	out := make([]boundPrice, 0, len(compress.PaperErrorBounds))
	for _, rel := range compress.PaperErrorBounds {
		bp, err := priceOne(rel)
		if err != nil {
			return nil, err
		}
		out = append(out, bp)
		obs.Add("lcpio_sweep_points_total", 1)
	}
	return out, nil
}

// RunDataDump reproduces Figure 6: for each error bound, measure the real
// codec's compression ratio on a scaled field, model compressing TotalBytes
// and writing the compressed output over NFS, at base clock and at the
// tuned frequencies, and report the energy split.
func RunDataDump(cfg Config, dcfg DumpConfig) ([]DumpResult, error) {
	bps, err := priceBounds(cfg, dcfg, "dump",
		func(pr *phases.Pricer, d DumpConfig, rel, ratio float64, compressedBytes int64) ([]phases.Phase, error) {
			comp, err := pr.Compress(d.Codec, d.TotalBytes, rel, ratio)
			return []phases.Phase{comp, pr.Move(d.Mount.Write, compressedBytes)}, err
		})
	if err != nil {
		return nil, err
	}
	out := make([]DumpResult, len(bps))
	for i, bp := range bps {
		out[i] = DumpResult{
			EB: bp.eb, Ratio: bp.ratio, CompressedBytes: bp.compressedBytes,
			BaseCompressJ: bp.base.Legs[0].Joules, BaseTransitJ: bp.base.Legs[1].Joules,
			TunedCompressJ: bp.tuned.Legs[0].Joules, TunedTransitJ: bp.tuned.Legs[1].Joules,
			BaseSeconds: bp.base.Seconds, TunedSeconds: bp.tuned.Seconds,
		}
	}
	return out, nil
}

// LoadResult is the read-path mirror of DumpResult: energy to fetch the
// compressed snapshot from NFS and reconstruct it, base clock vs tuned.
type LoadResult struct {
	EB              float64
	Ratio           float64
	CompressedBytes int64

	BaseReadJ        float64
	BaseDecompressJ  float64
	TunedReadJ       float64
	TunedDecompressJ float64

	BaseSeconds  float64
	TunedSeconds float64
}

// BaseTotalJ is the untuned total energy.
func (r LoadResult) BaseTotalJ() float64 { return r.BaseReadJ + r.BaseDecompressJ }

// TunedTotalJ is the tuned total energy.
func (r LoadResult) TunedTotalJ() float64 { return r.TunedReadJ + r.TunedDecompressJ }

// SavedPct is the relative energy saving in percent.
func (r LoadResult) SavedPct() float64 {
	if r.BaseTotalJ() <= 0 {
		return 0
	}
	return 100 * (r.BaseTotalJ() - r.TunedTotalJ()) / r.BaseTotalJ()
}

// RunDataLoad models the inverse of RunDataDump: reading the compressed
// dump back over NFS and decompressing it, applying the same tuning rule
// (writing fraction for the read, compression fraction for decompression).
// The paper leaves the read path to future work; this extension uses the
// identical methodology.
func RunDataLoad(cfg Config, dcfg DumpConfig) ([]LoadResult, error) {
	bps, err := priceBounds(cfg, dcfg, "load",
		func(pr *phases.Pricer, d DumpConfig, rel, ratio float64, compressedBytes int64) ([]phases.Phase, error) {
			dec, err := pr.Decompress(d.Codec, d.TotalBytes, rel, ratio)
			return []phases.Phase{pr.Move(d.Mount.Read, compressedBytes), dec}, err
		})
	if err != nil {
		return nil, err
	}
	out := make([]LoadResult, len(bps))
	for i, bp := range bps {
		out[i] = LoadResult{
			EB: bp.eb, Ratio: bp.ratio, CompressedBytes: bp.compressedBytes,
			BaseReadJ: bp.base.Legs[0].Joules, BaseDecompressJ: bp.base.Legs[1].Joules,
			TunedReadJ: bp.tuned.Legs[0].Joules, TunedDecompressJ: bp.tuned.Legs[1].Joules,
			BaseSeconds: bp.base.Seconds, TunedSeconds: bp.tuned.Seconds,
		}
	}
	return out, nil
}

// AverageDumpSavings aggregates Figure 6 into the paper's headline:
// mean absolute and relative savings across error bounds.
func AverageDumpSavings(results []DumpResult) (savedJ, savedPct float64, err error) {
	if len(results) == 0 {
		return 0, 0, fmt.Errorf("core: no dump results")
	}
	for _, r := range results {
		savedJ += r.SavedJ()
		savedPct += r.SavedPct()
	}
	n := float64(len(results))
	return savedJ / n, savedPct / n, nil
}
