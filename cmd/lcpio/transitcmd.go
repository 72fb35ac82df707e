package main

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"lcpio/internal/fpdata"
	"lcpio/internal/netsim"
	"lcpio/internal/transit"
)

// cmdTransit answers the in-transit compression economics questions: at
// which link bandwidth does compressing on the wire stop paying (per
// codec and bound), and how much quality does the ratio cost (ULP error,
// plus optional chaotic-divergence horizons).
func cmdTransit(args []string) error {
	fs := flag.NewFlagSet("transit", flag.ContinueOnError)
	dataset := fs.String("dataset", "Hurricane-ISABEL", "synthetic dataset: CESM-ATM, HACC, NYX or Hurricane-ISABEL")
	field := fs.String("field", "", "dataset field (empty = first registered)")
	elems := fs.Int("elems", 1<<20, "approximate elements to generate")
	seed := fs.Int64("seed", 1, "synthetic data seed")
	codecs := fs.String("codecs", "sz,zfp", "comma-separated codecs to price")
	bounds := fs.String("bounds", "1e-3,1e-5", "comma-separated range-relative error bounds")
	bwList := fs.String("bandwidths", "0.1,1,10,100", "comma-separated link bandwidths to sweep, Gbps")
	latency := fs.Float64("latency", 50e-6, "link latency, seconds")
	mtu := fs.Int("mtu", 1500, "link MTU, bytes")
	header := fs.Int("header", 66, "per-packet header bytes")
	chaos := fs.Bool("chaos", false, "also report Lorenz/logistic divergence horizons per codec/bound")
	chaosTol := fs.Float64("chaos-tol", 0.05, "normalized RMS separation counted as divergence")
	chaosSteps := fs.Int("chaos-steps", 4000, "max integration steps for the divergence horizon")
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, err := fpdata.Lookup(*dataset, *field)
	if err != nil {
		return err
	}
	f := fpdata.Generate(spec, spec.ScaleFor(*elems), *seed)
	bws, err := parseFloats(*bwList)
	if err != nil {
		return fmt.Errorf("bad --bandwidths: %w", err)
	}
	for _, bw := range bws {
		if !(bw > 0) {
			return fmt.Errorf("bad --bandwidths: %g Gbps is not positive", bw)
		}
	}
	bnds, err := parseFloats(*bounds)
	if err != nil {
		return fmt.Errorf("bad --bounds: %w", err)
	}
	for _, b := range bnds {
		if !(b > 0 && b < 1) {
			return fmt.Errorf("bad --bounds: %g outside (0, 1)", b)
		}
	}

	fmt.Printf("in-transit compression economics: %s/%s, %d elements (%d B raw)\n",
		spec.Dataset, spec.Field, len(f.Data), len(f.Data)*4)
	fmt.Printf("link: %g us latency, MTU %d (%d B headers)\n\n", *latency*1e6, *mtu, *header)
	fmt.Printf("%-5s %-8s %8s %10s %10s %12s %12s %10s %10s\n",
		"CODEC", "RELEB", "RATIO", "COMP s", "DECOMP s", "BREAKEVEN", "ENERGY-BE", "MEAN ULP", "MAX ULP")

	link, err := netsim.Custom("transit-cli", 10e9, *latency, *mtu, *header)
	if err != nil {
		return err
	}
	var rows []transit.Economics
	for _, codec := range strings.Split(*codecs, ",") {
		codec = strings.TrimSpace(codec)
		for _, relEB := range bnds {
			eco, _, err := transit.BreakEven(link, codec, relEB, f.Data, f.Dims)
			if err != nil {
				return err
			}
			fmt.Printf("%-5s %-8.0e %8.2f %10.4f %10.4f %12s %12s %10.1f %10.0f\n",
				codec, relEB, eco.Ratio, eco.CompressSeconds, eco.DecompressSeconds,
				fmtBps(eco.BreakEvenBps), fmtBps(eco.EnergyBreakEvenBps),
				eco.ULP.Mean, eco.ULP.Max)
			rows = append(rows, eco)
		}
	}

	fmt.Printf("\ngoodput sweep (compressed vs raw, Gbps links; * = compression wins):\n")
	fmt.Printf("%-5s %-8s", "CODEC", "RELEB")
	for _, bw := range bws {
		fmt.Printf(" %14s", fmt.Sprintf("%g Gbps", bw))
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-5s %-8.0e", r.Codec, r.RelEB)
		var bps []float64
		for _, bw := range bws {
			bps = append(bps, bw*1e9)
		}
		for _, pt := range r.Sweep(bps) {
			mark := " "
			if pt.CompressionWins {
				mark = "*"
			}
			fmt.Printf(" %13s%s", fmt.Sprintf("%.2f/%.2f", pt.GoodputBps/1e9, pt.RawGoodputBps/1e9), mark)
		}
		fmt.Println()
	}

	if *chaos {
		fmt.Printf("\ndivergence horizons (tol %.2g, max %d steps):\n", *chaosTol, *chaosSteps)
		fmt.Printf("%-5s %-8s %12s %12s\n", "CODEC", "RELEB", "LORENZ", "LOGISTIC")
		lor := transit.LorenzEnsemble(256, *seed)
		logi := transit.LogisticEnsemble(512, *seed)
		for _, r := range rows {
			_, lr, err := transit.BreakEven(link, r.Codec, r.RelEB, lor, []int{len(lor) / 3, 3})
			if err != nil {
				return err
			}
			_, gr, err := transit.BreakEven(link, r.Codec, r.RelEB, logi, []int{len(logi)})
			if err != nil {
				return err
			}
			fmt.Printf("%-5s %-8.0e %12d %12d\n", r.Codec, r.RelEB,
				transit.LorenzDivergenceHorizon(lor, lr, *chaosTol, *chaosSteps),
				transit.LogisticDivergenceHorizon(logi, gr, *chaosTol, *chaosSteps))
		}
	}
	return nil
}

func parseFloats(csv string) ([]float64, error) {
	var out []float64
	for _, s := range strings.Split(csv, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func fmtBps(bps float64) string {
	switch {
	case bps == 0:
		return "never"
	case math.IsInf(bps, 1):
		return "always"
	case bps >= 1e9:
		return fmt.Sprintf("%.2f Gbps", bps/1e9)
	case bps >= 1e6:
		return fmt.Sprintf("%.2f Mbps", bps/1e6)
	default:
		return fmt.Sprintf("%.0f bps", bps)
	}
}
