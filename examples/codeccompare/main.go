// Codeccompare: SZ versus ZFP across the paper's datasets and error bounds
// — compression ratio, maximum error and PSNR for every cell of the
// experiment matrix, using the real codecs on synthetic SDRBench-like
// fields.
package main

import (
	"flag"
	"fmt"
	"log"

	"lcpio/internal/compress"
	"lcpio/internal/fpdata"
	"lcpio/internal/tables"
)

func main() {
	elems := flag.Int("elems", 1<<17, "target field size in elements")
	seed := flag.Int64("seed", 3, "field generation seed")
	flag.Parse()

	specs := fpdata.TableI()
	var rows [][]string
	for _, spec := range specs {
		field := fpdata.Generate(spec, spec.ScaleFor(*elems), *seed)
		for _, rel := range compress.PaperErrorBounds {
			eb := compress.AbsBoundFromRelative(rel, field.Data)
			for _, name := range compress.Names() {
				codec, err := compress.NewHandle(name, 0)
				if err != nil {
					log.Fatal(err)
				}
				res, err := compress.Evaluate(codec, field.Data, field.Dims, eb)
				if err != nil {
					log.Fatalf("%s on %s: %v", name, spec.Dataset, err)
				}
				status := "ok"
				if res.MaxAbsError > eb {
					status = "BOUND VIOLATED"
				}
				rows = append(rows, []string{
					spec.Dataset,
					fmt.Sprintf("%g", rel),
					name,
					fmt.Sprintf("%.2f", res.Ratio()),
					fmt.Sprintf("%.2f", res.BitRate()),
					fmt.Sprintf("%.3g", res.MaxAbsError),
					fmt.Sprintf("%.1f", res.PSNR),
					status,
				})
			}
		}
	}
	fmt.Print(tables.Render("SZ vs ZFP on Table-I datasets (range-relative bounds)",
		[]string{"dataset", "eb", "codec", "ratio", "bits/val", "max err", "PSNR dB", "bound"},
		rows))
}
