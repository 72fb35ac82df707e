// Exascale: the introduction's motivating arithmetic at fleet scale. A
// HACC-class campaign produces snapshot sets that take ~10 hours to move at
// 500 GB/s; this example dumps per-node shares of such a snapshot across a
// fleet with contended shared storage, comparing raw dumping, compressed
// dumping, and compressed dumping with Eqn 3 tuning.
package main

import (
	"flag"
	"fmt"
	"log"

	"lcpio/internal/cluster"
	"lcpio/internal/compress"
	"lcpio/internal/core"
	"lcpio/internal/fpdata"
	"lcpio/internal/tables"
)

func main() {
	nodes := flag.Int("nodes", 512, "fleet size")
	perNodeGB := flag.Int64("per-node-gb", 64, "uncompressed snapshot share per node (GiB)")
	ingressGbps := flag.Float64("ingress", 100, "shared storage ingress (Gbps)")
	flag.Parse()

	// Intro arithmetic.
	fmt.Printf("HACC-class snapshot set: %s at 500 GB/s aggregate = %.1f h raw\n",
		tables.FormatSI(float64(cluster.HACCSnapshotBytes), "B"),
		cluster.TransmitHours(cluster.HACCSnapshotBytes, 500e9))

	// Measure a real HACC-like field's SZ ratio at eb 1e-3.
	spec, _ := fpdata.Lookup("HACC", "")
	field := fpdata.Generate(spec, spec.ScaleFor(1<<18), 5)
	eb := compress.AbsBoundFromRelative(1e-3, field.Data)
	codec, _ := compress.NewHandle("sz", 0)
	res, err := compress.Evaluate(codec, field.Data, field.Dims, eb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SZ on HACC-like velocities at eb=1e-3: ratio %.1f -> %.1f h compressed\n\n",
		res.Ratio(), cluster.TransmitHours(int64(float64(cluster.HACCSnapshotBytes)/res.Ratio()), 500e9))

	cfg := cluster.Config{
		Nodes:            *nodes,
		PerNodeBytes:     *perNodeGB << 30,
		Codec:            "sz",
		RelEB:            1e-3,
		Ratio:            res.Ratio(),
		ServerIngressBps: *ingressGbps * 1e9,
	}
	cmp, err := cluster.Compare(cfg, core.PaperRecommendation())
	if err != nil {
		log.Fatal(err)
	}

	row := func(name string, r cluster.Result) []string {
		return []string{
			name,
			fmt.Sprintf("%.0f s", r.WallSeconds),
			fmt.Sprintf("%.1f kJ", r.NodeJoules/1e3),
			fmt.Sprintf("%.1f MJ", r.TotalJoules/1e6),
		}
	}
	fmt.Print(tables.Render(
		fmt.Sprintf("%d-node dump, %d GiB/node over %.0f Gbps shared ingress",
			*nodes, *perNodeGB, *ingressGbps),
		[]string{"schedule", "wall", "J/node", "fleet"},
		[][]string{
			row("raw dump", cmp.Raw),
			row("SZ compressed", cmp.Compressed),
			row("SZ + Eqn 3", cmp.Tuned),
		}))
	fmt.Printf("\ncompression speedup: %.1fx wall clock\n", cmp.CompressionSpeedup())
	fmt.Printf("tuning savings on top: %.1f%% fleet energy\n", cmp.TuningEnergySavingsPct())
}
