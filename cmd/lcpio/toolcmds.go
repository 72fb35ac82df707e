package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"lcpio/internal/compress"
	"lcpio/internal/container"
	"lcpio/internal/dvfs"
	"lcpio/internal/phases"
	"lcpio/internal/tables"
)

// parseDims parses "512x512x512" into dimensions.
func parseDims(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad dimension %q", p)
		}
		dims = append(dims, v)
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("empty dims")
	}
	return dims, nil
}

func readFloats(path string) ([]float32, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw)%4 != 0 {
		return nil, fmt.Errorf("%s: size %d not a multiple of 4", path, len(raw))
	}
	out := make([]float32, len(raw)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out, nil
}

func writeFloats(path string, data []float32) error {
	raw := make([]byte, len(data)*4)
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(v))
	}
	return os.WriteFile(path, raw, 0o644)
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ContinueOnError)
	codecName := fs.String("codec", "sz", "codec: sz or zfp")
	dimsStr := fs.String("dims", "", "dimensions, e.g. 512x512x512 (slowest first)")
	eb := fs.Float64("eb", 1e-3, "absolute error bound")
	in := fs.String("in", "", "input file of little-endian float32 values")
	out := fs.String("out", "", "output container file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" || *dimsStr == "" {
		return fmt.Errorf("-in, -out and -dims are required")
	}
	dims, err := parseDims(*dimsStr)
	if err != nil {
		return err
	}
	data, err := readFloats(*in)
	if err != nil {
		return err
	}
	buf, err := container.Pack(*codecName, data, dims, *eb,
		container.Options{Parallelism: globalWorkers})
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return err
	}
	info, err := container.Stat(buf)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d -> %d bytes (ratio %.2f) with %s at eb=%g\n",
		*in, len(data)*4, len(buf), info.Ratio(), info.Codec, *eb)
	return nil
}

func cmdDecompress(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ContinueOnError)
	in := fs.String("in", "", "container file written by compress")
	out := fs.String("out", "", "output file of little-endian float32 values")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("-in and -out are required")
	}
	buf, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	data, dims, err := container.Unpack(buf, container.Options{Parallelism: globalWorkers})
	if err != nil {
		return err
	}
	if err := writeFloats(*out, data); err != nil {
		return err
	}
	fmt.Printf("%s: %d bytes -> %d values, dims %v\n", *in, len(buf), len(data), dims)
	return nil
}

func cmdStat(args []string) error {
	fs := flag.NewFlagSet("stat", flag.ContinueOnError)
	in := fs.String("in", "", "container file written by compress")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	buf, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	info, err := container.Stat(buf)
	if err != nil {
		return err
	}
	fmt.Printf("codec:       %s\n", info.Codec)
	fmt.Printf("dims:        %v\n", info.Dims)
	fmt.Printf("error bound: %g\n", info.ErrorBound)
	fmt.Printf("raw:         %s\n", tables.FormatBytes(info.RawBytes))
	fmt.Printf("packed:      %s (ratio %.2f)\n", tables.FormatBytes(info.PackedBytes), info.Ratio())
	return nil
}

func cmdTune(args []string) error {
	fs := flag.NewFlagSet("tune", flag.ContinueOnError)
	chipName := fs.String("chip", "Broadwell", "chip: Broadwell, Skylake, m510, c220g5, or CPU model")
	if err := fs.Parse(args); err != nil {
		return err
	}
	chip, err := dvfs.ChipByName(*chipName)
	if err != nil {
		return err
	}
	rec := phases.PaperRule()
	g := dvfs.NewGovernor(chip)
	fComp := g.SetScaled(rec.CompressionFraction)
	fWrite := g.SetScaled(rec.WritingFraction)
	fmt.Printf("chip: %s (%s, %s), base clock %.2f GHz\n",
		chip.Model, chip.Series, chip.Node, chip.BaseGHz)
	fmt.Printf("rule (Eqn 3): %v\n", rec)
	fmt.Printf("  lossy compression: set %.3f GHz  (cpufreq-set -f %.0fMHz)\n", fComp, fComp*1000)
	fmt.Printf("  data writing:      set %.3f GHz  (cpufreq-set -f %.0fMHz)\n", fWrite, fWrite*1000)
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	orig := fs.String("orig", "", "original file of little-endian float32 values")
	comp := fs.String("comp", "", "container file written by compress")
	eb := fs.Float64("eb", 0, "absolute error bound to check against (0 = report only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *orig == "" || *comp == "" {
		return fmt.Errorf("-orig and -comp are required")
	}
	want, err := readFloats(*orig)
	if err != nil {
		return err
	}
	buf, err := os.ReadFile(*comp)
	if err != nil {
		return err
	}
	got, dims, err := container.Unpack(buf, container.Options{Parallelism: globalWorkers})
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("decompressed %d values, original has %d", len(got), len(want))
	}
	maxErr := compress.MaxAbsError(want, got)
	psnr := compress.PSNR(want, got)
	fmt.Printf("dims:        %v\n", dims)
	fmt.Printf("ratio:       %.2f\n", float64(len(want)*4)/float64(len(buf)))
	fmt.Printf("max error:   %.6g\n", maxErr)
	fmt.Printf("PSNR:        %.1f dB\n", psnr)
	if *eb > 0 {
		if maxErr > *eb {
			return fmt.Errorf("BOUND VIOLATED: %.6g > %.6g", maxErr, *eb)
		}
		fmt.Printf("bound check: ok (%.6g <= %.6g)\n", maxErr, *eb)
	}
	return nil
}
