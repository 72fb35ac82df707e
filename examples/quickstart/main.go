// Quickstart: compress a scientific field with both lossy codecs, verify
// the error bound, and estimate the energy of compressing + writing it on a
// simulated HPC node at base clock versus the paper's tuned frequencies.
package main

import (
	"fmt"
	"log"

	"lcpio/internal/compress"
	"lcpio/internal/dvfs"
	"lcpio/internal/fpdata"
	"lcpio/internal/nfs"
	"lcpio/internal/phases"
)

func main() {
	// 1. Generate a NYX-like cosmology field (64^3, seeded).
	spec, err := fpdata.Lookup("NYX", "")
	if err != nil {
		log.Fatal(err)
	}
	field := fpdata.Generate(spec, 8, 42)
	fmt.Printf("field: %s %v (%d values, %.1f MB)\n\n",
		spec.Dataset, field.Dims, field.NumElements(),
		float64(field.SizeBytes())/1e6)

	// 2. Compress with SZ and ZFP at a range-relative 1e-3 bound.
	eb := compress.AbsBoundFromRelative(1e-3, field.Data)
	for _, name := range compress.Names() {
		codec, err := compress.NewHandle(name, 0)
		if err != nil {
			log.Fatal(err)
		}
		res, err := compress.Evaluate(codec, field.Data, field.Dims, eb)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-4s ratio %6.2f   max error %.3g (bound %.3g)   PSNR %.1f dB\n",
			name, res.Ratio(), res.MaxAbsError, eb, res.PSNR)
	}

	// 3. Estimate compressing + writing 64 GB of such data on a Broadwell
	// node, at base clock and with Eqn 3 tuning.
	chip := dvfs.Broadwell()
	const totalBytes = 64 << 30

	szCodec, _ := compress.NewHandle("sz", 0)
	res, err := compress.Evaluate(szCodec, field.Data, field.Dims, eb)
	if err != nil {
		log.Fatal(err)
	}
	basePricer := phases.NewPricer(chip, phases.BaseRule())
	comp, err := basePricer.Compress("sz", totalBytes, 1e-3, res.Ratio())
	if err != nil {
		log.Fatal(err)
	}
	write := basePricer.Move(nfs.DefaultMount().Write, int64(totalBytes/res.Ratio()))
	baseT, err := basePricer.Price(comp, write)
	if err != nil {
		log.Fatal(err)
	}
	tunedT, err := phases.NewPricer(chip, phases.PaperRule()).Price(comp, write)
	if err != nil {
		log.Fatal(err)
	}
	base, tuned := baseT.Joules, tunedT.Joules

	fmt.Printf("\n64 GB compress+write on %s:\n", chip.Model)
	fmt.Printf("  base clock (%.1f GHz): %8.1f kJ\n", chip.BaseGHz, base/1e3)
	fmt.Printf("  tuned (Eqn 3):         %8.1f kJ  (saved %.1f kJ, %.1f%%)\n",
		tuned/1e3, (base-tuned)/1e3, 100*(base-tuned)/base)
}
