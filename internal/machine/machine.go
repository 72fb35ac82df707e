// Package machine models a single CloudLab node executing the paper's two
// workload classes — lossy compression and NFS data writing — at a chosen
// CPU frequency, producing the (energy, runtime) samples that `perf` would
// report on real hardware.
//
// A Workload separates frequency-scaled work (CPU cycles) from
// frequency-independent work (memory stall time, network critical path).
// A Node combines a dvfs.Chip with that split:
//
//	compression:  t(f) = cycles/(f*IPC) + t_mem
//	data writing: t(f) = pnorm(cycles/(f*IPC), t_net) — client CPU overlaps
//	              the wire under the NFS async window, so wall time is a
//	              smooth maximum of the two
//
// and integrates power over that time itself, per component: package energy
// is busy power over the CPU work plus wait power over the stalls, DRAM
// energy an idle floor over the whole run plus active power over the
// stalls. Nothing sits between the power model and the (joules, seconds)
// its consumers read — in particular no emulated hardware counter, whose
// 61 uJ tick and 32-bit wrap belong to reading real RAPL, not to evaluating
// a model. Multiplicative measurement noise (seeded, deterministic)
// reproduces run-to-run variance so the regression pipeline downstream is
// exercised realistically.
//
// The per-codec cycle and stall coefficients below are calibration
// constants: they are chosen so the simulated timing shares reproduce the
// paper's measured sensitivities (compression ~ +7.5% runtime at -12.5%
// frequency; data writing ~ +9.3% at -15%, nearly flat on Skylake), as
// documented in DESIGN.md.
package machine

import (
	"fmt"
	"math"

	"lcpio/internal/dvfs"
	"lcpio/internal/netsim"
	"lcpio/internal/nfs"
)

// Kind labels the workload class, which selects the runtime composition.
type Kind int

const (
	// KindCompress is single-core lossy compression: CPU work and memory
	// stalls serialize.
	KindCompress Kind = iota
	// KindTransit is the NFS write path: client CPU work overlaps the
	// network pipeline.
	KindTransit
)

func (k Kind) String() string {
	if k == KindCompress {
		return "compress"
	}
	return "transit"
}

// Workload is chip-specific abstract work.
type Workload struct {
	Kind Kind
	Name string
	// CPUCycles is the frequency-scaled work in core cycles (already
	// adjusted for the chip's IPC).
	CPUCycles float64
	// StallSeconds is frequency-independent time: memory stalls for
	// compression, the network critical path for transit.
	StallSeconds float64
	// MemBytes drives the DRAM energy component.
	MemBytes float64
	// Cores is the parallelism of the CPU-bound part (chunked compression
	// spreads across cores, as the container package does for real).
	// 0 or 1 is the paper's single-core setting.
	Cores int
}

// WithCores returns a copy of the workload spread across n cores — the
// multi-core extension. Cycles split near-ideally across chunk workers;
// a small serial fraction (chunk dispatch, final assembly) remains.
func (w Workload) WithCores(n int) Workload {
	if n < 1 {
		n = 1
	}
	w.Cores = n
	return w
}

// Calibration constants (see package comment).
const (
	// Compression cost model: base cycles and stall seconds per raw byte
	// on the Broadwell reference core (IPCFactor 1.0).
	compressCyclesPerByte = 6.0
	compressStallPerByte  = 2.0e-9

	// Per-codec multipliers: zfp's block transform is cheaper per byte
	// than SZ's prediction+Huffman pipeline; bare scalar quantization is
	// cheaper still.
	szCycleFactor     = 1.00
	zfpCycleFactor    = 0.78
	squantCycleFactor = 0.45
	szStallFactor     = 1.00
	zfpStallFactor    = 0.85
	squantStallFactor = 0.70

	// Finer error bounds quantize into more intervals and emit more bits:
	// cycles grow by this fraction per decade of bound tightening below
	// 1e-1.
	ebCyclePerDecade = 0.08

	// Dedup cost model: content-defined chunking runs a gear rolling hash
	// over every raw byte (~1 cycle/byte: one shift, add, table load, mask
	// test) and a truncated SHA-256 per chunk. SHA-256 runs on the SHA
	// hardware extensions every current server core ships (and Go's
	// crypto/sha256 uses), ~2 cycles/byte. The stream prefetches
	// perfectly, so stalls are far below compression's.
	dedupCyclesPerByte = 3.0
	dedupStallPerByte  = 0.5e-9

	// NFS client write path: cycles per payload byte (copies, checksums,
	// RPC marshalling) and per RPC (syscall, XDR framing) on the
	// reference core.
	writeCyclesPerByte = 1.55
	writeCyclesPerRPC  = 25000.0

	// DRAM power model: idle floor plus active power during stalls.
	dramIdleWatts   = 1.2
	dramActiveWatts = 3.0

	// Measurement noise: relative sigma of multiplicative run-to-run
	// variation, matching the tight 95% CIs in the paper's figures.
	noiseSigma = 0.01
)

// CompressionWorkloadWithRatio characterizes compressing rawBytes with the
// named codec ("sz"/"zfp"/"squant") at range-relative error bound relEB on
// the given chip, informed by the measured compression ratio of the actual
// data: harder data (lower ratio) produces more quantization outliers and
// entropy-coding work, costing more cycles per byte. The experiment
// pipeline measures the ratio by running the real codec on a scaled field
// and feeds it here, which is what makes datasets distinguishable in the
// power model.
func CompressionWorkloadWithRatio(codec string, rawBytes int64, relEB, ratio float64, chip *dvfs.Chip) (Workload, error) {
	var cf, sf float64
	switch codec {
	case "sz":
		cf, sf = szCycleFactor, szStallFactor
	case "zfp":
		cf, sf = zfpCycleFactor, zfpStallFactor
	case "squant":
		cf, sf = squantCycleFactor, squantStallFactor
	default:
		return Workload{}, fmt.Errorf("machine: unknown codec %q", codec)
	}
	if rawBytes < 0 {
		return Workload{}, fmt.Errorf("machine: negative size %d", rawBytes)
	}
	ebMult := 1.0
	if relEB > 0 && relEB < 1e-1 {
		ebMult += ebCyclePerDecade * math.Log10(1e-1/relEB)
	}
	// Hard-to-compress data costs more entropy-coding work: up to ~25%
	// extra cycles as the ratio approaches 1, vanishing for very
	// compressible fields.
	ratioMult := 1.0
	if ratio > 0 && !math.IsInf(ratio, 0) {
		ratioMult += 0.5 / (1 + ratio)
	}
	b := float64(rawBytes)
	return Workload{
		Kind:         KindCompress,
		Name:         fmt.Sprintf("%s-compress-%g", codec, relEB),
		CPUCycles:    compressCyclesPerByte * cf * ebMult * ratioMult * b / chip.IPCFactor,
		StallSeconds: compressStallPerByte * sf * b,
		MemBytes:     3 * b, // read input, write output, working set traffic
	}, nil
}

// DecompressionWorkload characterizes reconstructing rawBytes of output
// with the named codec. Decompression skips prediction search and Huffman
// table construction, so it runs at a fraction of compression's cycle
// cost — the standard SZ/ZFP asymmetry.
func DecompressionWorkload(codec string, rawBytes int64, relEB, ratio float64, chip *dvfs.Chip) (Workload, error) {
	w, err := CompressionWorkloadWithRatio(codec, rawBytes, relEB, ratio, chip)
	if err != nil {
		return Workload{}, err
	}
	const decompressCycleFraction = 0.55
	w.Name = fmt.Sprintf("%s-decompress-%g", codec, relEB)
	w.CPUCycles *= decompressCycleFraction
	return w, nil
}

// TransitWorkload characterizes pushing a completed nfs.Transfer from the
// client on the given chip.
func TransitWorkload(tr nfs.Transfer, chip *dvfs.Chip) Workload {
	cycles := (writeCyclesPerByte*float64(tr.PayloadBytes) +
		writeCyclesPerRPC*float64(tr.RPCs)) / chip.IPCFactor
	return Workload{
		Kind:         KindTransit,
		Name:         fmt.Sprintf("write-%dB", tr.PayloadBytes),
		CPUCycles:    cycles,
		StallSeconds: tr.NetworkSeconds,
		MemBytes:     2 * float64(tr.PayloadBytes),
	}
}

// linkSegmentBytes is the socket-write granularity of the in-transit send
// path: one send() (copies, checksums, framing) per 64 KiB segment.
const linkSegmentBytes = 64 << 10

// LinkTransfer is the transfer profile of pushing payloadBytes through a
// bare netsim link — the in-transit compression send leg, which has no NFS
// window in front of it. TransitWorkload prices it with the same per-byte
// and per-RPC client-cycle coefficients as the NFS write path; the
// frequency-independent part is the link's serialization plus latency.
func LinkTransfer(payloadBytes int64, link netsim.Link) nfs.Transfer {
	if payloadBytes < 0 {
		payloadBytes = 0
	}
	rpcs := (payloadBytes + linkSegmentBytes - 1) / linkSegmentBytes
	if rpcs < 1 {
		rpcs = 1
	}
	return nfs.Transfer{
		PayloadBytes:   payloadBytes,
		RPCs:           rpcs,
		NetworkSeconds: link.MessageTime(payloadBytes),
	}
}

// DedupWorkload characterizes the delta-checkpoint dedup pass (ckpt format
// v3): a gear rolling hash over every raw byte, content-defined boundary
// tests, and a truncated SHA-256 digest per chunk. It is frequency-scaled
// CPU work like compression (KindCompress) with a light stall component —
// the pass streams sequentially and prefetches well.
func DedupWorkload(rawBytes int64, chip *dvfs.Chip) (Workload, error) {
	if rawBytes < 0 {
		return Workload{}, fmt.Errorf("machine: negative size %d", rawBytes)
	}
	b := float64(rawBytes)
	return Workload{
		Kind:         KindCompress,
		Name:         fmt.Sprintf("dedup-chunk-%dB", rawBytes),
		CPUCycles:    dedupCyclesPerByte * b / chip.IPCFactor,
		StallSeconds: dedupStallPerByte * b,
		MemBytes:     b, // one streaming read of the raw payload
	}, nil
}

// Sample is one measured run, the unit the sweep harness collects.
type Sample struct {
	FreqGHz  float64
	Seconds  float64
	Joules   float64 // both components together
	AvgWatts float64
	CPUBusy  float64 // seconds the core spent in frequency-scaled work
	// PackageJoules covers the CPU socket (cores, caches, uncore) and
	// DRAMJoules the memory subsystem: the two components a RAPL reader
	// reports as energy-pkg and energy-ram.
	PackageJoules float64
	DRAMJoules    float64
}

// Node is a simulated host.
type Node struct {
	Chip *dvfs.Chip
	rng  *noiseSource
}

// NewNode creates a node around chip with a seeded noise source; the same
// seed reproduces the same measurement noise sequence.
func NewNode(chip *dvfs.Chip, seed int64) *Node {
	return &Node{Chip: chip, rng: newNoiseSource(uint64(seed))}
}

// Run executes w at frequency f (snapped to the P-state grid) and returns
// the noisy measurement. Deterministic given the node's noise state.
func (n *Node) Run(w Workload, f float64) Sample {
	s := n.RunClean(w, f)
	// Multiplicative noise, correlated between time and energy the way
	// real thermal/background variation is.
	tn := 1 + noiseSigma*n.rng.normal()
	en := 1 + noiseSigma*(0.6*n.rng.normal()+0.4*(tn-1)/noiseSigma)
	s.Seconds *= tn
	s.Joules *= en
	s.PackageJoules *= en
	s.DRAMJoules *= en
	if s.Seconds > 0 {
		s.AvgWatts = s.Joules / s.Seconds
	}
	return s
}

// serialFraction is the Amdahl serial share of multi-core compression
// (chunk dispatch, container assembly).
const serialFraction = 0.03

// RunClean executes w at frequency f (snapped to the P-state grid) without
// measurement noise — the model's ground truth, which the pricer reads.
func (n *Node) RunClean(w Workload, f float64) Sample {
	chip := n.Chip
	f = chip.ClampFreq(f)
	cpuSec := w.CPUCycles / (f * 1e9)
	cores := w.Cores
	if cores < 1 {
		cores = 1
	}
	if cores > 1 {
		cpuSec = cpuSec*serialFraction + cpuSec*(1-serialFraction)/float64(cores)
	}

	var total, busy, waitPower float64
	switch w.Kind {
	case KindCompress:
		// Serial composition: predict/quantize bursts then stall on the
		// next cache-missing region.
		busy = cpuSec
		total = cpuSec + w.StallSeconds
		waitPower = chip.MemWaitPower(f)
	default:
		// Client CPU overlaps the NFS pipeline; a smooth p-norm maximum
		// models the imperfect overlap of a bounded async window.
		busy = cpuSec
		total = pnorm3(cpuSec, w.StallSeconds)
		waitPower = chip.IOWaitPower(f)
	}
	wait := total - busy
	if wait < 0 {
		wait = 0
	}

	busyPower := chip.BusyPower(f)
	if cores > 1 {
		busyPower = chip.PowerN(f, cores, 1)
	}
	s := Sample{
		FreqGHz:       f,
		Seconds:       busy + wait,
		CPUBusy:       busy,
		PackageJoules: joules(busyPower, busy) + joules(waitPower, wait),
		// Idle floor over the whole run, active power during the
		// stall/transfer phases.
		DRAMJoules: joules(dramIdleWatts, total) + joules(dramActiveWatts-dramIdleWatts, wait),
	}
	s.Joules = s.PackageJoules + s.DRAMJoules
	if s.Seconds > 0 {
		s.AvgWatts = s.Joules / s.Seconds
	}
	return s
}

// joules is one term of the integral: constant power over a duration. A
// negative or NaN term contributes nothing — workloads can be built from
// numbers that arrived in a service frame, and energy must stay monotone.
func joules(watts, seconds float64) float64 {
	if j := watts * seconds; j > 0 {
		return j
	}
	return 0
}

// pnorm3 is a smooth maximum: (a^3 + b^3)^(1/3).
func pnorm3(a, b float64) float64 {
	return math.Cbrt(a*a*a + b*b*b)
}

// --- deterministic noise -----------------------------------------------------

type noiseSource struct{ s0, s1 uint64 }

func newNoiseSource(seed uint64) *noiseSource {
	if seed == 0 {
		seed = 0x1234567890ABCDEF
	}
	n := &noiseSource{s0: seed, s1: seed ^ 0x9E3779B97F4A7C15}
	for i := 0; i < 8; i++ {
		n.next()
	}
	return n
}

func (n *noiseSource) next() uint64 {
	a, b := n.s0, n.s1
	n.s0 = b
	a ^= a << 23
	a ^= a >> 17
	a ^= b ^ (b >> 26)
	n.s1 = a
	return a + b
}

func (n *noiseSource) float() float64 {
	return float64(n.next()>>11) / (1 << 53)
}

func (n *noiseSource) normal() float64 {
	u1 := n.float()
	for u1 == 0 {
		u1 = n.float()
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*n.float())
}
