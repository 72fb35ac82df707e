// Package lcpio is a library for modeling and optimizing the power
// consumption of lossy compressed I/O on HPC systems, reproducing
// Wilkins & Calhoun, "Modeling Power Consumption of Lossy Compressed I/O
// for Exascale HPC Systems" (2022).
//
// It bundles:
//
//   - pure-Go SZ-style and ZFP-style error-bounded lossy compressors for
//     float32 scientific arrays (Compress, Decompress, Codecs);
//   - a simulated measurement substrate — DVFS chip models of the paper's
//     CloudLab nodes, per-component (package + DRAM) energy integration, and
//     an NFS write path over 10 GbE — standing in for the privileged
//     hardware access the paper uses (see DESIGN.md for the substitution
//     inventory);
//   - the paper's methodology: frequency sweeps, non-linear regression of
//     P(f) = a*f^b + c, scaled power/runtime characteristics, the Eqn 3
//     frequency tuning rule, and the 512 GB data-dumping study.
//
// Quick use:
//
//	codec, _ := lcpio.LookupCodec("sz")
//	buf, _ := codec.Compress(data, []int{512, 512, 512}, 1e-3)
//	...
//	h, _ := lcpio.ComputeHeadlines(lcpio.Config{Seed: 1})
//	fmt.Println(h)
//
// The lcpio command (cmd/lcpio) regenerates every table and figure of the
// paper's evaluation section from this API.
package lcpio

import (
	"lcpio/internal/advisor"
	"lcpio/internal/cluster"
	"lcpio/internal/compress"
	"lcpio/internal/container"
	"lcpio/internal/core"
	"lcpio/internal/dvfs"
	"lcpio/internal/fpdata"
	"lcpio/internal/machine"
	"lcpio/internal/obs"
	"lcpio/internal/perf"
	"lcpio/internal/phases"
	"lcpio/internal/regress"
)

// --- observability -----------------------------------------------------------

// Telemetry collects hierarchical spans and typed metrics from every
// pipeline in the library (codec stages, frequency sweeps, the NFS write
// path, campaign execution) and exports them as Prometheus text format
// (WritePrometheus), JSON (WriteJSON) or an indented span tree
// (WriteSpanTree). Telemetry is off by default and the disabled
// instrumentation path allocates nothing.
type Telemetry = obs.Registry

// Recorder taps live telemetry events (span start/end, metric updates)
// from an enabled Telemetry registry; attach one with Telemetry.SetTap
// before UseTelemetry. The lcpio CLI's progress line is a Recorder.
type Recorder = obs.Recorder

// TelemetrySpan is a handle to one open span; the zero value ignores all
// calls.
type TelemetrySpan = obs.Span

// NewTelemetry returns an empty, uninstalled telemetry registry.
func NewTelemetry() *Telemetry { return obs.NewRegistry() }

// UseTelemetry installs t as the process-global registry; pass nil to
// disable collection again.
func UseTelemetry(t *Telemetry) { obs.Use(t) }

// ActiveTelemetry returns the installed registry, or nil.
func ActiveTelemetry() *Telemetry { return obs.Active() }

// StartSpan opens a span on the active registry (a no-op handle when
// telemetry is disabled), letting applications nest their own phases
// around library calls.
func StartSpan(name string) TelemetrySpan { return obs.Start(name) }

// --- codecs ------------------------------------------------------------------

// Codec is an error-bounded lossy compressor for float32 arrays.
type Codec = compress.Codec

// Result summarizes one compression run (ratio, max error, PSNR).
type Result = compress.Result

// LookupCodec returns a registered codec ("sz", "zfp" or "squant") running
// on all cores. The returned codec keeps scratch between calls and is not
// safe for concurrent use — look one up per goroutine.
func LookupCodec(name string) (Codec, error) {
	h, err := compress.NewHandle(name, 0)
	return h, err
}

// CodecHandle is a reusable compression handle: repeated calls through one
// handle reuse all codec scratch buffers, reaching a zero-allocation steady
// state. Handles are not safe for concurrent use — create one per worker.
type CodecHandle = compress.Handle

// NewCodecHandle returns a reusable handle for the named codec with the
// given intra-codec worker count (0 = all cores).
func NewCodecHandle(name string, workers int) (CodecHandle, error) {
	return compress.NewHandle(name, workers)
}

// CodecNames lists the registered codecs.
func CodecNames() []string { return compress.Names() }

// Evaluate compresses, decompresses and scores data under codec c.
func Evaluate(c Codec, data []float32, dims []int, eb float64) (Result, error) {
	return compress.Evaluate(c, data, dims, eb)
}

// AbsBoundFromRelative converts a range-relative error bound to absolute.
func AbsBoundFromRelative(rel float64, data []float32) float64 {
	return compress.AbsBoundFromRelative(rel, data)
}

// PaperErrorBounds are the four bounds the paper sweeps.
var PaperErrorBounds = compress.PaperErrorBounds

// --- hardware ----------------------------------------------------------------

// Chip models a CPU's DVFS and power behaviour.
type Chip = dvfs.Chip

// Governor selects P-states like cpufreq-set.
type Governor = dvfs.Governor

// Broadwell returns the m510 node's Xeon D-1548 profile (Table II).
func Broadwell() *Chip { return dvfs.Broadwell() }

// Skylake returns the c220g5 node's Xeon Silver 4114 profile (Table II).
func Skylake() *Chip { return dvfs.Skylake() }

// Chips returns the paper's hardware matrix.
func Chips() []*Chip { return dvfs.Chips() }

// NewGovernor starts a governor at the chip's base clock.
func NewGovernor(c *Chip) *Governor { return dvfs.NewGovernor(c) }

// --- datasets ----------------------------------------------------------------

// DatasetSpec describes one paper dataset at full scale.
type DatasetSpec = fpdata.Spec

// Field is a generated floating-point array.
type Field = fpdata.Field

// TableI returns the paper's Table I dataset registry.
func TableI() []DatasetSpec { return fpdata.TableI() }

// IsabelFields returns the held-out Hurricane-ISABEL validation fields.
func IsabelFields() []DatasetSpec { return fpdata.IsabelFields() }

// GenerateField materializes a dataset at 1/scale of paper dimensions.
func GenerateField(spec DatasetSpec, scale int, seed int64) *Field {
	return fpdata.Generate(spec, scale, seed)
}

// --- methodology -------------------------------------------------------------

// Config controls an experiment campaign.
type Config = core.Config

// Study is a measurement campaign: Section IV-A's compression sweeps or
// Section IV-B's data-writing sweeps. Study.Fit(TableIV) and Fit(TableV)
// regress the paper's models; Study.Characteristics builds its figures.
type Study = core.Study

// Partition is a named slice of a study's entries; TableIV and TableV are
// the model-data partitions of the paper's Tables IV and V.
type Partition = core.Partition

var (
	TableIV = core.TableIV
	TableV  = core.TableV
)

// ScaledPower (Figures 1 and 3), ScaledRuntime (Figures 2 and 4) and
// ScaledEnergy select the curve Study.Characteristics plots.
var (
	ScaledPower   core.Extract = perf.Sweep.ScaledPower
	ScaledRuntime core.Extract = perf.Sweep.ScaledRuntime
	ScaledEnergy  core.Extract = core.ScaledEnergy
)

// ModelRow is one row of Table IV or V.
type ModelRow = core.ModelRow

// PowerLawFit is a fitted P(f) = a*f^b + c model.
type PowerLawFit = regress.PowerLawFit

// Series is one plotted trend of the paper's figures.
type Series = core.Series

// Recommendation is the Eqn 3 tuning rule.
type Recommendation = core.Recommendation

// Savings quantifies a tuned operating point.
type Savings = core.Savings

// DumpConfig and DumpResult drive the Figure 6 experiment.
type (
	DumpConfig = core.DumpConfig
	DumpResult = core.DumpResult
)

// Headlines aggregates the paper's headline numbers.
type Headlines = core.Headlines

// RunCompressionStudy executes the compression measurement campaign.
func RunCompressionStudy(cfg Config) (*Study, error) {
	return core.RunCompressionStudy(cfg)
}

// RunTransitStudy executes the data-writing measurement campaign.
func RunTransitStudy(cfg Config) (*Study, error) {
	return core.RunTransitStudy(cfg)
}

// PaperRecommendation returns the paper's Eqn 3 fractions.
func PaperRecommendation() Recommendation { return core.PaperRecommendation() }

// DeriveRecommendation computes a data-driven Eqn 3 from the compression
// and the data-writing study.
func DeriveRecommendation(compression, writing *Study) (Recommendation, error) {
	return core.DeriveRecommendation(compression, writing)
}

// RunDataDump reproduces the Figure 6 experiment.
func RunDataDump(cfg Config, dcfg DumpConfig) ([]DumpResult, error) {
	return core.RunDataDump(cfg, dcfg)
}

// ComputeHeadlines runs the full pipeline and aggregates headline numbers.
func ComputeHeadlines(cfg Config) (Headlines, error) {
	return core.ComputeHeadlines(cfg)
}

// FitPowerLaw fits the paper's Eqn 2 model to (frequency, power) data.
func FitPowerLaw(fs, ps []float64) (PowerLawFit, error) {
	return regress.FitPowerLaw(fs, ps)
}

// Compress64 compresses float64 data with the named codec at an absolute
// error bound; both codecs preserve double precision end to end.
func Compress64(codecName string, data []float64, dims []int, eb float64) ([]byte, error) {
	h, err := compress.NewHandle(codecName, 0)
	if err != nil {
		return nil, err
	}
	return h.Compress64(data, dims, eb)
}

// Decompress64 reverses Compress64.
func Decompress64(codecName string, buf []byte) ([]float64, []int, error) {
	h, err := compress.NewHandle(codecName, 0)
	if err != nil {
		return nil, nil, err
	}
	return h.Decompress64(buf)
}

// --- extensions ---------------------------------------------------------------

// PackOptions controls the chunked container format.
type PackOptions = container.Options

// ContainerInfo is parsed container metadata.
type ContainerInfo = container.Info

// Pack compresses data into a chunked container with parallel per-slab
// compression; any registered codec name works.
func Pack(codecName string, data []float32, dims []int, eb float64, opts PackOptions) ([]byte, error) {
	return container.Pack(codecName, data, dims, eb, opts)
}

// Unpack decompresses a whole container in parallel.
func Unpack(buf []byte, opts PackOptions) ([]float32, []int, error) {
	return container.Unpack(buf, opts)
}

// StatContainer parses container metadata without decompressing.
func StatContainer(buf []byte) (ContainerInfo, error) { return container.Stat(buf) }

// ReadChunk decompresses a single chunk by index, returning its values,
// dims and starting row.
func ReadChunk(buf []byte, idx int) ([]float32, []int, int, error) {
	return container.ReadChunk(buf, idx)
}

// ClusterConfig, ClusterResult and ClusterComparison expose the fleet-dump
// simulation (shared-ingress contention; see internal/cluster).
type (
	ClusterConfig     = cluster.Config
	ClusterResult     = cluster.Result
	ClusterComparison = cluster.Comparison
)

// ClusterDump simulates a homogeneous fleet dump at the rule's clocks (the
// zero rule is Eqn 3).
func ClusterDump(cfg ClusterConfig, rule PhaseRule) (ClusterResult, error) {
	return cluster.Dump(cfg, rule)
}

// ClusterCompare contrasts raw, compressed and tuned fleet dumps.
func ClusterCompare(cfg ClusterConfig, rule PhaseRule) (ClusterComparison, error) {
	return cluster.Compare(cfg, rule)
}

// AdviceRequest and Advice expose the energy-aware configuration search
// `lcpio advise` runs: the constraints of one dump, and the cheapest
// (codec, bound, workers, frequency pair) meeting them with the candidate
// table behind it.
type (
	AdviceRequest = advisor.Request
	Advice        = advisor.Decision
)

// Recommend picks from a cheap sketch of the field, hedging predicted
// quality by 3 dB.
func Recommend(data []float32, dims []int, req AdviceRequest) (Advice, error) {
	ctrl, err := advisor.New(advisor.Config{})
	if err != nil {
		return Advice{}, err
	}
	sk, err := ctrl.Sketch(data, dims)
	if err != nil {
		return Advice{}, err
	}
	return ctrl.Decide(sk, req)
}

// Advise runs the same search with every candidate measured by a full
// round trip of the field: exact, and orders of magnitude slower.
func Advise(data []float32, dims []int, req AdviceRequest) (Advice, error) {
	ctrl, err := advisor.New(advisor.Config{})
	if err != nil {
		return Advice{}, err
	}
	return ctrl.ExhaustiveSweep(data, dims, req)
}

// Plan, Phase and PhaseRule expose the campaign planner (compute /
// compress / write phases with per-class frequency plans).
type (
	Plan      = phases.Plan
	Phase     = phases.Phase
	PhaseRule = phases.Rule
)

// CheckpointCampaign builds an n-iteration (compute, compress, write) plan.
func CheckpointCampaign(n int, computeSec float64, compress, write machine.Workload) Plan {
	return phases.Campaign(n, computeSec,
		Phase{Name: "checkpoint-compress", Class: phases.Compression, Workload: compress},
		Phase{Name: "checkpoint-write", Class: phases.Writing, Workload: write})
}

// Workload is abstract chip-specific work consumed by the node model.
type Workload = machine.Workload

// Node is a simulated host executing workloads.
type Node = machine.Node

// NewNode creates a simulated node around a chip with seeded noise.
func NewNode(c *Chip, seed int64) *Node { return machine.NewNode(c, seed) }

// CompressionWorkload characterizes compressing rawBytes with a codec at a
// range-relative bound on a chip, with a measured compression ratio.
func CompressionWorkload(codec string, rawBytes int64, relEB, ratio float64, chip *Chip) (Workload, error) {
	return machine.CompressionWorkloadWithRatio(codec, rawBytes, relEB, ratio, chip)
}

// RunDataLoad models the read path: NFS fetch + decompression, tuned vs
// base (the paper's future-work direction).
func RunDataLoad(cfg Config, dcfg DumpConfig) ([]core.LoadResult, error) {
	return core.RunDataLoad(cfg, dcfg)
}

// Pack64 is Pack for float64 data.
func Pack64(codecName string, data []float64, dims []int, eb float64, opts PackOptions) ([]byte, error) {
	return container.Pack64(codecName, data, dims, eb, opts)
}

// Unpack64 decompresses a float64 container in parallel.
func Unpack64(buf []byte, opts PackOptions) ([]float64, []int, error) {
	return container.Unpack64(buf, opts)
}
