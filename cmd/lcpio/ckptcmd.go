package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"runtime"
	"strings"

	"lcpio/internal/ckpt"
	"lcpio/internal/dedup"
	"lcpio/internal/dvfs"
	"lcpio/internal/fpdata"
	"lcpio/internal/netsim"
	"lcpio/internal/nfs"
	"lcpio/internal/tables"
)

// cmdCkpt dispatches the checkpoint-store subcommands. Global flags
// (--workers, telemetry) apply to every subcommand and may appear anywhere
// on the line; main hoists them before this runs.
func cmdCkpt(args []string) error {
	return runSub("ckpt", []command{
		{"write", "compress a synthetic multi-rank set into one file", cmdCkptWrite},
		{"restore", "decode a set, whole or by rank and field", cmdCkptRestore},
		{"verify", "check a set's digests, optionally its payloads", cmdCkptVerify},
		{"stats", "print a set's manifest summary", cmdCkptStats},
	}, args)
}

// ckptMeta encodes the synthetic-data recipe into the manifest Meta field
// so `ckpt restore -check` can regenerate the originals and verify bounds.
// Churned dumps (the delta scenario) append their churn recipe; sets
// without churn keep the original string, so older tools still parse it.
func ckptMeta(dataset string, seed int64, elems int, relEB float64, churn float64, churnSeed int64) string {
	s := fmt.Sprintf("synthetic dataset=%s seed=%d elems=%d releb=%g", dataset, seed, elems, relEB)
	if churn > 0 {
		s += fmt.Sprintf(" churn=%g churnseed=%d", churn, churnSeed)
	}
	return s
}

func parseCkptMeta(meta string) (dataset string, seed int64, elems int, relEB float64, churn float64, churnSeed int64, err error) {
	fail := func(e error) (string, int64, int, float64, float64, int64, error) {
		return "", 0, 0, 0, 0, 0, e
	}
	if !strings.HasPrefix(meta, "synthetic ") {
		return fail(fmt.Errorf("set was not written from a synthetic recipe (meta %q)", meta))
	}
	_, err = fmt.Sscanf(meta, "synthetic dataset=%s seed=%d elems=%d releb=%g",
		&dataset, &seed, &elems, &relEB)
	if err != nil {
		return fail(fmt.Errorf("unparseable meta %q: %v", meta, err))
	}
	if i := strings.Index(meta, " churn="); i >= 0 {
		if _, err = fmt.Sscanf(meta[i:], " churn=%g churnseed=%d", &churn, &churnSeed); err != nil {
			return fail(fmt.Errorf("unparseable churn recipe in meta %q: %v", meta, err))
		}
	}
	return dataset, seed, elems, relEB, churn, churnSeed, nil
}

// applyCkptChurn perturbs a contiguous seeded region of every rank's
// payload beyond its field bound — the synthetic "this much state changed
// since the last dump" knob for delta writes. Deterministic in (seed,
// rank, field), so `restore -check` can regenerate the churned originals.
func applyCkptChurn(set *ckpt.Set, frac float64, seed int64) {
	if frac <= 0 {
		return
	}
	if frac > 1 {
		frac = 1
	}
	for fi := range set.Fields {
		f := &set.Fields[fi]
		for r, d := range f.Data {
			n := int(frac * float64(len(d)))
			if n < 1 {
				n = 1
			}
			start := int((seed + int64(r)*31 + int64(fi)*7) % int64(len(d)-n+1))
			if start < 0 {
				start += len(d) - n + 1
			}
			for i := start; i < start+n; i++ {
				d[i] += float32(10 * f.ErrorBound)
			}
		}
	}
}

// openCkptChain opens the comma-separated base-chain files (immediate base
// first) and returns their mediums plus a closer.
func openCkptChain(spec string) ([]ckpt.Medium, func(), error) {
	var meds []ckpt.Medium
	var files []*ckpt.FileMedium
	closeAll := func() {
		for _, f := range files {
			f.Close()
		}
	}
	for _, path := range strings.Split(spec, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		fm, err := ckpt.OpenFileMedium(path)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		files = append(files, fm)
		meds = append(meds, fm)
	}
	return meds, closeAll, nil
}

// ckptSyntheticSet builds the multi-rank set for the recipe: each dataset
// field becomes one checkpoint field, each rank a distinct seeded
// realization, with absolute bounds derived from the field's value range.
func ckptSyntheticSet(dataset, codec string, ranks, nFields, elems int, seed int64, relEB, churn float64, churnSeed int64) (ckpt.Set, error) {
	var specs []fpdata.Spec
	for _, s := range append(fpdata.TableI(), fpdata.IsabelFields()...) {
		if s.Dataset == dataset {
			specs = append(specs, s)
		}
	}
	if len(specs) == 0 {
		return ckpt.Set{}, fmt.Errorf("unknown dataset %q", dataset)
	}
	if nFields > 0 && nFields < len(specs) {
		specs = specs[:nFields]
	}
	set := ckpt.Set{
		Name:  dataset,
		Meta:  ckptMeta(dataset, seed, elems, relEB, churn, churnSeed),
		Codec: codec,
		Ranks: ranks,
	}
	for _, spec := range specs {
		scale := spec.ScaleFor(elems)
		var f ckpt.Field
		f.Name = spec.Field
		for r := 0; r < ranks; r++ {
			gen := fpdata.Generate(spec, scale, seed+int64(r))
			if f.Dims == nil {
				f.Dims = gen.Dims
				lo, hi := gen.Range()
				rng := float64(hi - lo)
				if !(rng > 0) {
					rng = 1
				}
				f.ErrorBound = relEB * rng
			}
			f.Data = append(f.Data, gen.Data)
		}
		set.Fields = append(set.Fields, f)
	}
	applyCkptChurn(&set, churn, churnSeed)
	return set, nil
}

func ckptFaultMount(seed int64, drop, short float64) nfs.Mount {
	m := nfs.DefaultMount()
	if drop > 0 || short > 0 {
		m.Faults = nfs.FaultConfig{
			Injector:       netsim.NewInjector(seed),
			DropProb:       drop,
			ShortWriteProb: short,
		}
	}
	return m
}

func cmdCkptWrite(args []string) error {
	fs := flag.NewFlagSet("ckpt write", flag.ContinueOnError)
	out := fs.String("out", "", "output checkpoint set file")
	dataset := fs.String("dataset", "Hurricane-ISABEL", "synthetic dataset: CESM-ATM, HACC, NYX or Hurricane-ISABEL")
	codec := fs.String("codec", "sz", "codec: sz or zfp")
	ranks := fs.Int("ranks", 4, "simulated MPI ranks")
	nFields := fs.Int("fields", 0, "fields per rank (0 = all the dataset has)")
	elems := fs.Int("elems", 1<<16, "target elements per rank per field")
	relEB := fs.Float64("releb", 1e-3, "range-relative error bound")
	seed := fs.Int64("seed", 1, "synthetic data seed (rank r uses seed+r)")
	parity := fs.Int("parity", 0, "Reed-Solomon parity shards per field stripe (any <= m lost ranks reconstruct on restore)")
	baseSpec := fs.String("base", "", "write an incremental set deduped against this base set file; comma-append the base's own chain, immediate base first")
	churnFlag := fs.Float64("churn", 0, "perturb this fraction of each rank's payload beyond the bound (synthetic churn for delta scenarios)")
	churnSeed := fs.Int64("churn-seed", 1, "seed for the churned region placement")
	queue := fs.Int("queue", 0, "pipeline queue depth (0 = 2x workers)")
	faultSeed := fs.Int64("fault-seed", 0, "fault injector seed (with -drop/-short-write/-medium-err)")
	drop := fs.Float64("drop", 0, "wire data-leg drop probability")
	shortW := fs.Float64("short-write", 0, "wire short-write probability")
	medErr := fs.Float64("medium-err", 0, "transient medium write-error probability")
	energy := fs.Bool("energy", false, "print the checkpoint campaign energy report")
	iters := fs.Int("iters", 10, "campaign iterations for -energy")
	compute := fs.Float64("compute", 300, "compute seconds between checkpoints for -energy")
	chipName := fs.String("chip", "Broadwell", "chip for -energy")
	restart := fs.Bool("restart", false, "-energy campaign includes the restart (read+decompress) legs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	set, err := ckptSyntheticSet(*dataset, *codec, *ranks, *nFields, *elems, *seed, *relEB, *churnFlag, *churnSeed)
	if err != nil {
		return err
	}
	fm, err := ckpt.CreateFileMedium(*out)
	if err != nil {
		return err
	}
	defer fm.Close()
	var med ckpt.Medium = fm
	if *medErr > 0 {
		med = ckpt.NewFaultyMedium(fm, *faultSeed, ckpt.FaultProfile{WriteErrProb: *medErr})
	}
	workers := globalWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts := ckpt.WriteOptions{
		Workers:     workers,
		QueueDepth:  *queue,
		ParityRanks: *parity,
		Mount:       ckptFaultMount(*faultSeed, *drop, *shortW),
	}
	if *baseSpec != "" {
		meds, closeChain, err := openCkptChain(*baseSpec)
		if err != nil {
			return err
		}
		defer closeChain()
		if len(meds) == 0 {
			return fmt.Errorf("-base names no files")
		}
		base, err := ckpt.OpenBase(meds[0], meds[1:], dedup.Params{}, ckpt.RestoreOptions{Workers: workers})
		if err != nil {
			return err
		}
		opts.Base = base
	}
	res, err := ckpt.Write(med, set, opts)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d ranks x %d fields = %d chunks, %d -> %d bytes (ratio %.2f)\n",
		*out, res.Manifest.Ranks, len(res.Manifest.Fields), res.Chunks,
		res.RawBytes, res.FileBytes, res.Ratio())
	if res.BaseName != "" {
		fmt.Printf("  delta vs %q:     %d blobs stored, %d chunks local / %d base refs / %d shared (dedup ratio %.1f%%)\n",
			res.BaseName, res.Blobs, res.ChunksLocal, res.ChunksRef, res.ChunksShared, 100*res.DedupRatio())
	}
	fmt.Printf("  compress wall:   %.4f s (%d workers)\n", res.CompressWallSeconds, opts.Workers)
	fmt.Printf("  sim write:       %.4f s\n", res.SimWriteSeconds)
	fmt.Printf("  sim serial:      %.4f s\n", res.SimSerialSeconds)
	fmt.Printf("  sim pipelined:   %.4f s (overlap margin %.1f%%)\n",
		res.SimPipelinedSeconds, 100*res.OverlapMargin())
	if res.ParityRanks > 0 {
		fmt.Printf("  parity:          %d shards/stripe, %d bytes (%.2f%% of payload, %.4f s encode)\n",
			res.ParityRanks, res.ParityBytes, 100*res.ParityOverhead(), res.ECEncodeSeconds)
	}
	if res.Retries > 0 || res.WireRetransmits > 0 || res.WireShortWrites > 0 {
		fmt.Printf("  faults ridden:   %d medium retries, %d wire retransmits, %d short writes\n",
			res.Retries, res.WireRetransmits, res.WireShortWrites)
	}
	if *energy {
		chip, err := dvfs.ChipByName(*chipName)
		if err != nil {
			return err
		}
		cmp, err := res.EnergyReport(ckpt.CampaignOptions{
			Iterations:     *iters,
			ComputeSeconds: *compute,
			Chip:           chip,
			WithRestore:    *restart,
		})
		if err != nil {
			return err
		}
		kind := "checkpoint"
		if *restart {
			kind = "checkpoint/restart"
		}
		fmt.Printf("energy (%s campaign, %d iterations on %s):\n", kind, *iters, chip.Model)
		// A campaign is joules and a fraction of a second on a small set
		// and megajoules and hours on a large one: both legs print with
		// four significant digits and SI-prefixed joules.
		fmt.Printf("  base clock:      %.4g s, %s (%.1f W avg)\n",
			cmp.Base.Seconds, tables.FormatSI(cmp.Base.Joules, "J"), cmp.Base.AvgWatts())
		fmt.Printf("  tuned (Eqn 3):   %.4g s, %s (%.1f W avg)\n",
			cmp.Tuned.Seconds, tables.FormatSI(cmp.Tuned.Joules, "J"), cmp.Tuned.AvgWatts())
		fmt.Printf("  energy saved:    %.2f%% for %.2f%% more runtime\n",
			cmp.EnergySavedPct(), cmp.RuntimeIncreasePct())
		if res.ParityRanks > 0 {
			pe, err := res.ParityEnergy(ckpt.CampaignOptions{Chip: chip})
			if err != nil {
				return err
			}
			fmt.Printf("  parity premium:  %.2f J per checkpoint at the tuned I/O clock\n", pe.ParityJoules)
			fmt.Printf("  rank recovery:   reconstruct %.2f J vs redump %.2f J\n",
				pe.ReconstructJoules, pe.RedumpJoules)
			fmt.Printf("  break-even:      parity pays off above %.2e rank-loss prob per checkpoint\n",
				pe.BreakEvenLossProb)
		}
		if res.BaseName != "" {
			// Price the delta against the full dump it avoided: same set,
			// same options, written without a base to a scratch medium.
			fullOpts := opts
			fullOpts.Base = nil
			fullRes, err := ckpt.Write(ckpt.NewMemMedium(), set, fullOpts)
			if err != nil {
				return err
			}
			de, err := res.DeltaEnergy(fullRes, ckpt.CampaignOptions{Chip: chip})
			if err != nil {
				return err
			}
			fmt.Printf("  dedup pass:      %.2f J per checkpoint (chunk + digest %d raw bytes)\n",
				de.HashJoules, res.RawBytes)
			fmt.Printf("  delta economics: %.2f J vs %.2f J full dump (net %.2f J saved at %.1f%% churn)\n",
				de.DeltaJoules, de.FullJoules, de.NetSavedJoules, 100*de.ChurnRate)
			fmt.Printf("  break-even:      delta pays off below %.1f%% churn per checkpoint\n",
				100*de.BreakEvenChurn)
		}
	}
	return nil
}

func cmdCkptRestore(args []string) error {
	fs := flag.NewFlagSet("ckpt restore", flag.ContinueOnError)
	in := fs.String("in", "", "checkpoint set file")
	partial := fs.Bool("partial", false, "tolerate unrecoverable chunks (missing ranks restore as absent)")
	check := fs.Bool("check", false, "regenerate the synthetic originals from the manifest meta and verify error bounds")
	baseSpec := fs.String("base", "", "base-chain set files for an incremental set (comma-separated, immediate base first)")
	faultSeed := fs.Int64("fault-seed", 0, "fault injector seed (with -read-corrupt/-read-err)")
	readCorrupt := fs.Float64("read-corrupt", 0, "transient first-read corruption probability")
	readErr := fs.Float64("read-err", 0, "transient read-error probability")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	fm, err := ckpt.OpenFileMedium(*in)
	if err != nil {
		return err
	}
	defer fm.Close()
	var med ckpt.Medium = fm
	if *readCorrupt > 0 || *readErr > 0 {
		med = ckpt.NewFaultyMedium(fm, *faultSeed, ckpt.FaultProfile{
			ReadCorruptProb: *readCorrupt,
			ReadErrProb:     *readErr,
		})
	}
	var bases []ckpt.Medium
	if *baseSpec != "" {
		meds, closeChain, err := openCkptChain(*baseSpec)
		if err != nil {
			return err
		}
		defer closeChain()
		bases = meds
	}
	got, err := ckpt.Restore(med, ckpt.RestoreOptions{
		Workers:      globalWorkers,
		AllowPartial: *partial,
		Bases:        bases,
	})
	if err != nil {
		if errors.Is(err, ckpt.ErrBase) {
			return fmt.Errorf("base chain problem (pass the base set files with -base): %w", err)
		}
		return err
	}
	m := got.Manifest
	rep := got.Report
	fmt.Printf("%s: %q, %d ranks x %d fields, codec %s\n",
		*in, m.SetName, m.Ranks, len(m.Fields), m.Codec)
	if m.IsDelta() {
		fmt.Printf("  incremental:     base %q, chain depth %d, dedup ratio %.1f%%\n",
			m.BaseName, m.ChainDepth, 100*m.DedupRatio())
	}
	fmt.Printf("  chunks ok:       %d/%d (%d re-read after digest mismatch, %d retries)\n",
		rep.ChunksOK, m.NumChunks(), rep.ChunksReread, rep.Retries)
	fmt.Printf("  sim read:        %.4f s\n", rep.SimReadSeconds)
	if rep.ChunksReconstructed > 0 {
		fmt.Printf("  reconstructed:   %d chunks from parity (ranks %v, %d parity chunks read)\n",
			rep.ChunksReconstructed, rep.ReconstructedRanks, rep.ParityChunksRead)
	}
	for _, f := range rep.ParityFailed {
		fmt.Printf("  PARITY LOST:     shard %d field %q: %v\n", f.Rank-m.Ranks, m.Fields[f.Field].Name, f.Err)
	}
	for _, f := range rep.Failed {
		fmt.Printf("  UNRECOVERABLE:   rank %d field %q: %v\n", f.Rank, m.Fields[f.Field].Name, f.Err)
	}
	if len(rep.MissingRanks) > 0 {
		fmt.Printf("  missing ranks:   %v\n", rep.MissingRanks)
	}
	if *check {
		if err := ckptCheckRestore(got); err != nil {
			return err
		}
		fmt.Printf("  bound check:     ok (every restored value within its field bound)\n")
	}
	return nil
}

// ckptCheckRestore regenerates the synthetic originals named by the
// manifest meta and verifies every restored value against its field bound.
func ckptCheckRestore(got *ckpt.Restored) error {
	dataset, seed, elems, relEB, churn, churnSeed, err := parseCkptMeta(got.Manifest.Meta)
	if err != nil {
		return err
	}
	orig, err := ckptSyntheticSet(dataset, got.Manifest.Codec,
		got.Manifest.Ranks, len(got.Manifest.Fields), elems, seed, relEB, churn, churnSeed)
	if err != nil {
		return err
	}
	for _, of := range orig.Fields {
		rf := got.Field(of.Name)
		if rf == nil {
			return fmt.Errorf("field %q missing from restore", of.Name)
		}
		for r, want := range of.Data {
			data := rf.Data[r]
			if data == nil {
				continue // reported missing; nothing to check
			}
			if len(data) != len(want) {
				return fmt.Errorf("field %q rank %d: %d values, want %d", of.Name, r, len(data), len(want))
			}
			for i := range want {
				if d := math.Abs(float64(want[i]) - float64(data[i])); d > rf.ErrorBound*1.0000001 {
					return fmt.Errorf("field %q rank %d elem %d: error %g exceeds bound %g",
						of.Name, r, i, d, rf.ErrorBound)
				}
			}
		}
	}
	return nil
}

func cmdCkptVerify(args []string) error {
	fs := flag.NewFlagSet("ckpt verify", flag.ContinueOnError)
	in := fs.String("in", "", "checkpoint set file")
	deep := fs.Bool("deep", false, "also decompress every chunk")
	baseSpec := fs.String("base", "", "base-chain set files for an incremental set (comma-separated, immediate base first); enables cross-set reference checks")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	fm, err := ckpt.OpenFileMedium(*in)
	if err != nil {
		return err
	}
	defer fm.Close()
	var bases []ckpt.Medium
	if *baseSpec != "" {
		meds, closeChain, err := openCkptChain(*baseSpec)
		if err != nil {
			return err
		}
		defer closeChain()
		bases = meds
	}
	rep, err := ckpt.VerifySet(fm, ckpt.VerifyOptions{Deep: *deep, Workers: globalWorkers, Bases: bases})
	if err != nil {
		return err
	}
	mode := "digests"
	if *deep {
		mode = "digests + payload decode"
	}
	fmt.Printf("%s: %d/%d chunks ok (%s)\n", *in, rep.ChunksOK, rep.Chunks, mode)
	if rep.ParityChunks > 0 {
		fmt.Printf("  parity: %d/%d shards ok\n", rep.ParityOK, rep.ParityChunks)
	}
	if rep.RefChunks > 0 {
		fmt.Printf("  base refs: %d/%d resolved and digest-checked\n", rep.RefsOK, rep.RefChunks)
	}
	for _, f := range rep.Failed {
		fmt.Printf("  BAD: rank %d field %d: %v\n", f.Rank, f.Field, f.Err)
	}
	for _, f := range rep.ParityFailed {
		fmt.Printf("  BAD PARITY: shard rank %d field %d: %v\n", f.Rank, f.Field, f.Err)
	}
	if rep.BaseErr != nil {
		fmt.Printf("  BASE CHAIN: %v\n", rep.BaseErr)
		return fmt.Errorf("base chain unusable: %w", rep.BaseErr)
	}
	if len(rep.Failed) > 0 {
		if rep.Reconstructable {
			fmt.Printf("  damage is within the parity budget: restore will reconstruct\n")
			return nil
		}
		return fmt.Errorf("%d corrupt chunks", len(rep.Failed))
	}
	if len(rep.ParityFailed) > 0 && !rep.Reconstructable {
		return fmt.Errorf("%d corrupt parity shards exceed the erasure budget", len(rep.ParityFailed))
	}
	return nil
}

// cmdCkptStats prints a set's manifest-level shape without touching the
// payload: geometry, sizes, and — for incremental sets — the base chain and
// dedup economics.
func cmdCkptStats(args []string) error {
	fs := flag.NewFlagSet("ckpt stats", flag.ContinueOnError)
	in := fs.String("in", "", "checkpoint set file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	fm, err := ckpt.OpenFileMedium(*in)
	if err != nil {
		return err
	}
	defer fm.Close()
	m, err := ckpt.ReadManifest(fm)
	if err != nil {
		return err
	}
	kind := "full set"
	if m.IsDelta() {
		kind = "delta set"
	}
	fmt.Printf("%s: %q (%s)\n", *in, m.SetName, kind)
	fmt.Printf("  geometry:        %d ranks x %d fields, codec %s\n", m.Ranks, len(m.Fields), m.Codec)
	fmt.Printf("  raw bytes:       %d\n", m.RawBytes())
	fmt.Printf("  payload bytes:   %d (file %d)\n", m.PayloadBytes(), fm.Size())
	if m.ParityRanks > 0 {
		fmt.Printf("  parity:          %d shards/stripe, %d bytes\n", m.ParityRanks, m.ParityBytes())
	}
	if m.IsDelta() {
		p := m.DedupParams()
		fmt.Printf("  base:            %q (pin %08x, chain depth %d)\n", m.BaseName, m.BasePin, m.ChainDepth)
		fmt.Printf("  chunking:        min/avg/max %d/%d/%d bytes\n", p.MinSize, p.AvgSize, p.MaxSize)
		nRefs := 0
		for _, stream := range m.Entries {
			for _, e := range stream {
				if !e.Local() {
					nRefs++
				}
			}
		}
		fmt.Printf("  blobs:           %d stored locally (%d raw bytes)\n", len(m.Blobs), m.LocalRawBytes())
		fmt.Printf("  base refs:       %d entries; %d raw bytes deduped (base refs + sharing)\n",
			nRefs, m.RefRawBytes())
		fmt.Printf("  dedup ratio:     %.1f%% of raw bytes not rewritten\n", 100*m.DedupRatio())
	} else if m.Meta != "" {
		fmt.Printf("  meta:            %s\n", m.Meta)
	}
	return nil
}
