// Checkpoint: energy of a checkpointing simulation campaign — the use case
// of Moran et al. that the paper's related-work section builds on. An
// application alternates compute phases with checkpoint dumps (compress +
// NFS write), expressed as a phases.Plan; the paper's Eqn 3 applies only to
// the I/O phases, trading a small checkpoint slowdown for energy savings
// that cost no compute-phase performance.
package main

import (
	"flag"
	"fmt"
	"log"

	"lcpio/internal/compress"
	"lcpio/internal/dvfs"
	"lcpio/internal/fpdata"
	"lcpio/internal/machine"
	"lcpio/internal/nfs"
	"lcpio/internal/phases"
	"lcpio/internal/tables"
)

func main() {
	checkpoints := flag.Int("n", 24, "number of checkpoints in the campaign")
	stateGB := flag.Int64("state-gb", 16, "application state size in GiB")
	computeSec := flag.Float64("compute", 600, "compute seconds between checkpoints")
	chipName := flag.String("chip", "Skylake", "chip")
	flag.Parse()

	chip, err := dvfs.ChipByName(*chipName)
	if err != nil {
		log.Fatal(err)
	}
	node := machine.NewNode(chip, 11)

	// Measure the checkpoint state's compressibility with the real codec.
	spec, _ := fpdata.Lookup("NYX", "")
	field := fpdata.Generate(spec, spec.ScaleFor(1<<17), 11)
	eb := compress.AbsBoundFromRelative(1e-3, field.Data)
	codec, _ := compress.NewHandle("sz", 0)
	res, err := compress.Evaluate(codec, field.Data, field.Dims, eb)
	if err != nil {
		log.Fatal(err)
	}

	stateBytes := *stateGB << 30
	pr := phases.NewPricer(chip, phases.PaperRule())
	comp, err := pr.Compress("sz", stateBytes, 1e-3, res.Ratio())
	if err != nil {
		log.Fatal(err)
	}
	write := pr.Move(nfs.DefaultMount().Write, int64(float64(stateBytes)/res.Ratio()))

	plan := phases.Campaign(*checkpoints, *computeSec, comp, write)
	cmp, err := phases.Compare(plan, phases.PaperRule(), node)
	if err != nil {
		log.Fatal(err)
	}

	row := func(name string, t phases.Totals) []string {
		io := t.ByClass[phases.Compression]
		io.Seconds += t.ByClass[phases.Writing].Seconds
		io.Joules += t.ByClass[phases.Writing].Joules
		return []string{
			name,
			fmt.Sprintf("%.0f s", t.Seconds),
			tables.FormatSI(t.Joules, "J"),
			fmt.Sprintf("%.1f s", io.Seconds/float64(*checkpoints)),
			tables.FormatSI(io.Joules/float64(*checkpoints), "J"),
		}
	}
	fmt.Print(tables.Render(
		fmt.Sprintf("checkpoint campaign on %s: %d checkpoints of %d GiB (SZ ratio %.1f), %.0f s compute each",
			chip.Model, *checkpoints, *stateGB, res.Ratio(), *computeSec),
		[]string{"schedule", "campaign time", "campaign energy", "ckpt time", "ckpt energy"},
		[][]string{
			row("base clock", cmp.Base),
			row("Eqn 3 tuned", cmp.Tuned),
		}))
	fmt.Printf("\ncampaign energy saved: %.2f%%  runtime cost: +%.2f%%\n",
		cmp.EnergySavedPct(), cmp.RuntimeIncreasePct())
	fmt.Println("compute phases are untouched; the savings come entirely from the I/O phases.")
}
