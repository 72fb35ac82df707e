package main

import (
	"fmt"
	"regexp"
	"sort"
)

// Tags: every value says whether it was measured on this host during the
// real run (seconds, bytes, counts) or is an output of the Eqn 2 power model
// (simulated seconds and joules). The two are never printed unlabeled.
const (
	tagWall = "wall"
	tagSim  = "sim"
)

// metricDef is one row of the benchmark's metric table. BENCHMARK.json is
// this table written out; bench_test.go fails when the two disagree.
type metricDef struct {
	Name   string
	Unit   string
	Tag    string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Moves names the end-to-end metric a per-layer metric should move, and
	// where; README.md prints it as the layer map.
	Moves string
}

// endToEnd are the metrics a user of a dump/restore sees. Bounds were set
// from ten runs with ten seeds per workload on the host in HISTORY.jsonl (see
// README.md, "Calibration"): at least three times the widest spread seen
// there, capped at the contract's 0.25 — which is where every wall-clock
// time sits, because this shared VM repeats a median to 2% in a quiet minute
// and to 10-18% in a noisy one.
var endToEnd = []metricDef{
	{Name: "dump_mbps", Unit: "MB/s", Tag: tagWall, Better: "higher", Bound: 0.25},
	{Name: "restore_mbps", Unit: "MB/s", Tag: tagWall, Better: "higher", Bound: 0.25},
	{Name: "stored_ratio", Unit: "x", Tag: tagWall, Better: "higher", Bound: 0.02},
	{Name: "modeled_j_per_gb", Unit: "J/GB", Tag: tagSim, Better: "lower", Bound: 0.02},
	{Name: "peak_rss_mb", Unit: "MB", Tag: tagWall, Better: "lower", Bound: 0.15},
	{Name: "alloc_mb_per_cycle", Unit: "MB", Tag: tagWall, Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Tag: tagWall, Better: "lower", Bound: 0.25},
}

// failShare is printed and recorded with the end-to-end metrics but is not
// in BENCHMARK.json: it must be 0, and the driver's contract takes failures
// from the result line's "failed" and "attempted" instead.
var failShare = metricDef{Name: "fail_share", Unit: "share", Tag: tagWall, Better: "lower"}

var perLayer = []metricDef{
	{Name: "advisor.sketch_ms", Unit: "ms", Tag: tagWall, Better: "lower", Moves: "<1% of dump_mbps everywhere"},
	{Name: "advisor.predict_us", Unit: "us", Tag: tagWall, Better: "lower", Moves: "<1% of dump_mbps everywhere"},
	{Name: "advisor.decide_ms", Unit: "ms", Tag: tagWall, Better: "lower", Moves: "not on the dump path; advise latency only"},
	{Name: "advisor.ratio_rel_err", Unit: "share", Tag: tagWall, Better: "lower", Moves: "failed operations (lane overflow beyond ExtentSlack) on svc workloads"},

	{Name: "sz.compress_mbps", Unit: "MB/s", Tag: tagWall, Better: "higher", Moves: "dump_mbps on sz-smooth, sz-noisy; little on delta-parity; none on zfp-wirez"},
	{Name: "sz.decompress_mbps", Unit: "MB/s", Tag: tagWall, Better: "higher", Moves: "restore_mbps on sz-smooth, sz-noisy, delta-parity"},
	{Name: "sz.compress_allocs", Unit: "count", Tag: tagWall, Better: "lower", Moves: "alloc_mb_per_cycle on sz workloads"},
	{Name: "sz.decompress_allocs", Unit: "count", Tag: tagWall, Better: "lower", Moves: "alloc_mb_per_cycle on sz workloads"},
	{Name: "sz.scaling", Unit: "x", Tag: tagWall, Better: "higher", Moves: "dump_mbps, restore_mbps when Workers > 1"},
	{Name: "zfp.compress_mbps", Unit: "MB/s", Tag: tagWall, Better: "higher", Moves: "dump_mbps on zfp-wirez only"},
	{Name: "zfp.decompress_mbps", Unit: "MB/s", Tag: tagWall, Better: "higher", Moves: "restore_mbps and (putZ inflate) dump_mbps on zfp-wirez only"},
	{Name: "zfp.compress_allocs", Unit: "count", Tag: tagWall, Better: "lower", Moves: "alloc_mb_per_cycle on zfp-wirez"},
	{Name: "zfp.decompress_allocs", Unit: "count", Tag: tagWall, Better: "lower", Moves: "alloc_mb_per_cycle on zfp-wirez"},
	{Name: "zfp.scaling", Unit: "x", Tag: tagWall, Better: "higher", Moves: "dump_mbps, restore_mbps on zfp-wirez when Workers > 1"},

	{Name: "huffman.build_us", Unit: "us", Tag: tagWall, Better: "lower", Moves: "sz.compress_mbps -> dump_mbps on sz-noisy; little on sz-smooth"},
	{Name: "huffman.encode_msym_s", Unit: "Msym/s", Tag: tagWall, Better: "higher", Moves: "sz.compress_mbps -> dump_mbps on sz-noisy; little on sz-smooth"},
	{Name: "huffman.decode_msym_s", Unit: "Msym/s", Tag: tagWall, Better: "higher", Moves: "sz.decompress_mbps -> restore_mbps on sz-noisy"},
	{Name: "lossless.compress_mbps", Unit: "MB/s", Tag: tagWall, Better: "higher", Moves: "dump_mbps on sz-noisy"},
	{Name: "lossless.decompress_mbps", Unit: "MB/s", Tag: tagWall, Better: "higher", Moves: "restore_mbps on sz-noisy"},
	{Name: "lossless.ratio", Unit: "x", Tag: tagWall, Better: "higher", Moves: "stored_ratio on sz-noisy"},

	{Name: "container.pack_overhead_pct", Unit: "%", Tag: tagWall, Better: "lower", Moves: "dump_mbps, all workloads"},
	{Name: "container.unpack_mbps", Unit: "MB/s", Tag: tagWall, Better: "higher", Moves: "restore_mbps, all workloads"},
	{Name: "container.stat_us", Unit: "us", Tag: tagWall, Better: "lower", Moves: "restore_mbps, all workloads (negligible)"},
	{Name: "stream.dispatch_us_per_item", Unit: "us", Tag: tagWall, Better: "lower", Moves: "dump_mbps when Workers > 1"},
	{Name: "stream.efficiency", Unit: "share", Tag: tagWall, Better: "higher", Moves: "dump_mbps when Workers > 1"},

	{Name: "svc.frames_per_dump", Unit: "count", Tag: tagWall, Better: "lower", Moves: "dump_mbps on svc workloads"},
	{Name: "svc.wire_bytes_per_dump", Unit: "B", Tag: tagWall, Better: "lower", Moves: "dump_mbps on sz-noisy, zfp-wirez"},
	{Name: "svc.open_rtt_ms", Unit: "ms", Tag: tagWall, Better: "lower", Moves: "dump_mbps on svc workloads (small)"},
	{Name: "svc.put_rtt_p50_ms", Unit: "ms", Tag: tagWall, Better: "lower", Moves: "dump_mbps on zfp-wirez, sz-noisy"},
	{Name: "svc.put_rtt_p95_ms", Unit: "ms", Tag: tagWall, Better: "lower", Moves: "dump_mbps tail on zfp-wirez, sz-noisy"},
	{Name: "svc.write_block_s", Unit: "s", Tag: tagWall, Better: "lower", Moves: "dump_mbps on sz-noisy, zfp-wirez"},
	{Name: "svc.ack_wait_s", Unit: "s", Tag: tagWall, Better: "lower", Moves: "dump_mbps on zfp-wirez (largest) and sz-noisy; ~0 on sz-smooth"},
	{Name: "svc.close_rtt_ms", Unit: "ms", Tag: tagWall, Better: "lower", Moves: "dump_mbps on svc workloads (small)"},
	{Name: "svc.restore_rtt_s", Unit: "s", Tag: tagWall, Better: "lower", Moves: "restore_mbps on svc workloads"},
	{Name: "svc.client_compute_s", Unit: "s", Tag: tagWall, Better: "lower", Moves: "dump_mbps on sz-smooth (largest)"},
	{Name: "svc.admission_wait_us", Unit: "us", Tag: tagWall, Better: "lower", Moves: "dump_mbps under contention; ~0 with one client"},
	{Name: "svc.wire_verified_chunks", Unit: "count", Tag: tagWall, Better: "higher", Moves: "dump_mbps on zfp-wirez (each costs one inflate)"},
	{Name: "svc.parseframe_ns", Unit: "ns", Tag: tagWall, Better: "lower", Moves: "dump_mbps on svc workloads (negligible)"},

	{Name: "ckpt.medium_write_calls", Unit: "count", Tag: tagWall, Better: "lower", Moves: "dump_mbps on sz-noisy, zfp-wirez, delta-parity"},
	{Name: "ckpt.medium_write_bytes", Unit: "B", Tag: tagWall, Better: "lower", Moves: "dump_mbps, stored_ratio"},
	{Name: "ckpt.medium_write_s", Unit: "s", Tag: tagWall, Better: "lower", Moves: "dump_mbps on sz-noisy, zfp-wirez"},
	{Name: "ckpt.medium_read_calls", Unit: "count", Tag: tagWall, Better: "lower", Moves: "restore_mbps everywhere"},
	{Name: "ckpt.medium_read_bytes", Unit: "B", Tag: tagWall, Better: "lower", Moves: "restore_mbps everywhere"},
	{Name: "ckpt.medium_read_s", Unit: "s", Tag: tagWall, Better: "lower", Moves: "restore_mbps everywhere"},
	{Name: "ckpt.write_amp", Unit: "x", Tag: tagWall, Better: "lower", Moves: "dump_mbps; 1.0 means every stored byte was written once"},
	{Name: "ckpt.digest_mbps", Unit: "MB/s", Tag: tagWall, Better: "higher", Moves: "dump_mbps, restore_mbps on sz-noisy, zfp-wirez"},
	{Name: "ckpt.readmanifest_us", Unit: "us", Tag: tagWall, Better: "lower", Moves: "restore_mbps (small)"},
	{Name: "ckpt.write_overhead_pct", Unit: "%", Tag: tagWall, Better: "lower", Moves: "dump_mbps on delta-parity"},
	{Name: "ckpt.restore_overhead_pct", Unit: "%", Tag: tagWall, Better: "lower", Moves: "restore_mbps everywhere"},
	{Name: "ckpt.openbase_s", Unit: "s", Tag: tagWall, Better: "lower", Moves: "setup_s on delta-parity"},
	{Name: "ckpt.ec_encode_s", Unit: "s", Tag: tagWall, Better: "lower", Moves: "dump_mbps on delta-parity; 0 elsewhere"},
	{Name: "ckpt.chunks_reconstructed", Unit: "count", Tag: tagWall, Better: "higher", Moves: "restore_mbps on delta-parity (must be 1); 0 elsewhere"},

	{Name: "ec.encode_mbps", Unit: "MB/s", Tag: tagWall, Better: "higher", Moves: "dump_mbps on delta-parity only"},
	{Name: "ec.reconstruct_mbps", Unit: "MB/s", Tag: tagWall, Better: "higher", Moves: "restore_mbps on delta-parity only"},
	{Name: "ec.parity_overhead_pct", Unit: "%", Tag: tagWall, Better: "lower", Moves: "stored_ratio on delta-parity only"},
	{Name: "dedup.split_mbps", Unit: "MB/s", Tag: tagWall, Better: "higher", Moves: "dump_mbps on delta-parity only"},
	{Name: "dedup.sum_mbps", Unit: "MB/s", Tag: tagWall, Better: "higher", Moves: "dump_mbps on delta-parity only"},
	{Name: "dedup.ref_share", Unit: "share", Tag: tagWall, Better: "higher", Moves: "dump_mbps, stored_ratio on delta-parity; 0 elsewhere"},

	{Name: "machine.compress_j", Unit: "J", Tag: tagSim, Better: "lower", Moves: "modeled_j_per_gb; never a wall metric"},
	{Name: "machine.transit_j", Unit: "J", Tag: tagSim, Better: "lower", Moves: "modeled_j_per_gb; never a wall metric"},
	{Name: "machine.read_j", Unit: "J", Tag: tagSim, Better: "lower", Moves: "modeled_j_per_gb on svc workloads"},
	{Name: "machine.sim_dump_s", Unit: "s", Tag: tagSim, Better: "lower", Moves: "nothing measured; the model's own makespan"},
	{Name: "transit.wire_saved_s", Unit: "s", Tag: tagSim, Better: "higher", Moves: "nothing measured; zfp-wirez only"},

	{Name: "obs.on_overhead_pct", Unit: "%", Tag: tagWall, Better: "lower", Moves: "dump_mbps when telemetry is on"},
	{Name: "trace_overhead_pct", Unit: "%", Tag: tagWall, Better: "lower", Moves: "how far a traced dump is from an untraced one"},
	{Name: "dump.unattributed_pct", Unit: "%", Tag: tagWall, Better: "lower", Moves: "names the dump time no layer owns; negative means overlap"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// value is one reported number. N is the sample count behind a median or
// percentile (0 for exact values and single measurements).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Tag   string  `json:"tag"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects one run's values and refuses anything the table does
// not define, so a metric cannot be printed without its unit and tag.
type metricSet struct {
	defs   map[string]metricDef
	order  []string
	values map[string]value
}

func newMetricSet(defs ...[]metricDef) *metricSet {
	ms := &metricSet{defs: map[string]metricDef{}, values: map[string]value{}}
	for _, list := range defs {
		for _, d := range list {
			ms.defs[d.Name] = d
			ms.order = append(ms.order, d.Name)
		}
	}
	return ms
}

func checkDef(d metricDef) error {
	switch {
	case !nameRE.MatchString(d.Name):
		return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
	case !unitRE.MatchString(d.Unit):
		return fmt.Errorf("metric %s has no valid unit (%q)", d.Name, d.Unit)
	case d.Tag != tagWall && d.Tag != tagSim:
		return fmt.Errorf("metric %s has no wall/sim tag (%q)", d.Name, d.Tag)
	case d.Better != "higher" && d.Better != "lower":
		return fmt.Errorf("metric %s has no direction (%q)", d.Name, d.Better)
	}
	return nil
}

// put records one value; n is the sample count behind it.
func (ms *metricSet) put(name string, v float64, n int) error {
	d, ok := ms.defs[name]
	if !ok {
		return fmt.Errorf("metric %q is not in the benchmark's table", name)
	}
	if err := checkDef(d); err != nil {
		return err
	}
	if _, dup := ms.values[name]; dup {
		return fmt.Errorf("metric %q reported twice", name)
	}
	ms.values[name] = value{Value: v, Unit: d.Unit, Tag: d.Tag, N: n}
	return nil
}

// must is put for callers whose metric names are literals in this program:
// a refusal there is a bug in the program, not in its input.
func (ms *metricSet) must(name string, v float64, n int) {
	if err := ms.put(name, v, n); err != nil {
		panic(err)
	}
}

// missing lists the table's metrics that were never put.
func (ms *metricSet) missing() []string {
	var out []string
	for _, n := range ms.order {
		if _, ok := ms.values[n]; !ok {
			out = append(out, n)
		}
	}
	return out
}

// quantile interpolates linearly between order statistics (type 7, the
// default of numpy and R).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
