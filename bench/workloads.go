package main

import (
	"fmt"
	"runtime"

	"lcpio/internal/ckpt"
	"lcpio/internal/compress"
	"lcpio/internal/fpdata"
)

// workload is one fixed input recipe and dump/restore path. A cycle is one
// write half followed by one read half; every cycle of a run is identical,
// so per-cycle counts repeat exactly.
type workload struct {
	Name string
	// Why is the reason the workload exists (BENCHMARK.json and README.md).
	Why     string
	Dataset string
	Field   string
	Codec   string
	RelEB   float64
	// WireCodec selects putZ frames: the daemon inflate-verifies each chunk.
	WireCodec string
	// Delta selects the local store path (no svc): delta write against a
	// parity-protected base, chain restore, lost-rank restore.
	Delta bool
}

var workloads = []workload{
	{
		Name:    "sz-smooth",
		Why:     "NYX velocity_x 128^3, sz rel 1e-3 over loopback svc: predict/quantize dominates, few bytes move; codec-kernel gains show here",
		Dataset: "NYX", Field: "velocity_x", Codec: "sz", RelEB: 1e-3,
	},
	{
		Name:    "zfp-wirez",
		Why:     "same field, zfp rel 1e-3 with putZ frames: daemon inflates every chunk behind its ack; svc pipelining or zfp decode moves it, sz does not",
		Dataset: "NYX", Field: "velocity_x", Codec: "zfp", RelEB: 1e-3, WireCodec: "zfp",
	},
	{
		Name:    "sz-noisy",
		Why:     "HACC vx 1-D particles, sz rel 1e-4: wide residual alphabet, so huffman, lossless, socket, CRC and medium do the work, not the predictor",
		Dataset: "HACC", Field: "vx", Codec: "sz", RelEB: 1e-4,
	},
	{
		Name:    "delta-parity",
		Why:     "no svc: 10%-churn delta write with 2 parity ranks, chain restore, lost-rank RS restore; dedup, ec and manifest work, two reads per write",
		Dataset: "NYX", Field: "velocity_x", Codec: "sz", RelEB: 1e-3, Delta: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Input geometry. Each 8 MiB rank array is four times a core's 2 MiB L2 on
// the reference host; its 260 MiB L3 is shared with other tenants and larger
// than any affordable working set, so bandwidth-like numbers are this
// sandbox's, not a device's.
const (
	ranks       = 8
	fullElems   = 2 << 20 // ~2 Mi float32 per rank: 64 MiB raw per cycle
	smokeElems  = 64 << 10
	parityRanks = 2
	lostRank    = 3
	churnShare  = 0.10
	churnFactor = 10 // churned values move by this many error bounds
	warmCycles  = 2
)

// config is everything one run is parameterized by.
type config struct {
	Seed    int64
	Seconds float64
	Smoke   bool
	// Dir receives temporary set files and the trace file.
	Dir string
}

func (c config) elems() int {
	if c.Smoke {
		return smokeElems
	}
	return fullElems
}

// workers is the compressor count on both sides: two, so the stream
// scheduler and the codecs' parallel paths run, without oversubscribing the
// reference host's two vCPUs.
func workers() int { return min(2, runtime.NumCPU()) }

// refSeed names the realization whose value range turns a workload's
// relative bound into its absolute one. The bound is the workload's, not the
// run's: with it taken from each seed's own rank 0, ten seeds compressed at
// ten absolute bounds and stored_ratio moved 6% between them; with it fixed,
// 0.3%.
const refSeed = 0

// buildSet generates the workload's input: one field, `ranks` seeded
// realizations (field seed = run seed + rank), all under the workload's
// absolute bound.
func buildSet(w workload, cfg config) (ckpt.Set, error) {
	spec, err := fpdata.Lookup(w.Dataset, w.Field)
	if err != nil {
		return ckpt.Set{}, err
	}
	scale := spec.ScaleFor(cfg.elems())
	ref := fpdata.Generate(spec, scale, refSeed)
	f := ckpt.Field{
		Name: spec.Field, Dims: ref.Dims,
		ErrorBound: compress.AbsBoundFromRelative(w.RelEB, ref.Data),
	}
	for r := 0; r < ranks; r++ {
		f.Data = append(f.Data, fpdata.Generate(spec, scale, cfg.Seed+int64(r)).Data)
	}
	return ckpt.Set{
		Name:   w.Name,
		Meta:   fmt.Sprintf("bench workload=%s seed=%d", w.Name, cfg.Seed),
		Codec:  w.Codec,
		Ranks:  ranks,
		Fields: []ckpt.Field{f},
	}, nil
}

// churned returns a copy of set with a seeded contiguous 10% of every rank
// moved by 10x the bound — the "this much state changed since the last
// dump" input of the delta workload (the rule `lcpio ckpt write -churn`
// uses).
func churned(set ckpt.Set, seed int64) ckpt.Set {
	out := set
	out.Fields = make([]ckpt.Field, len(set.Fields))
	for fi, f := range set.Fields {
		nf := f
		nf.Data = make([][]float32, len(f.Data))
		for r, d := range f.Data {
			c := append([]float32(nil), d...)
			n := max(1, int(churnShare*float64(len(c))))
			span := int64(len(c) - n + 1)
			start := int(((seed+int64(r)*31+int64(fi)*7)%span + span) % span)
			for i := start; i < start+n; i++ {
				c[i] += float32(churnFactor * f.ErrorBound)
			}
			nf.Data[r] = c
		}
		out.Fields[fi] = nf
	}
	return out
}

func rawBytes(set ckpt.Set) int64 {
	var n int64
	for _, f := range set.Fields {
		for _, d := range f.Data {
			n += int64(len(d)) * 4
		}
	}
	return n
}
