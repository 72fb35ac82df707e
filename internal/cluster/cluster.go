// Package cluster scales the paper's single-node results to the exascale
// setting that motivates it: many nodes concurrently dumping compressed
// snapshots to shared storage. It models NFS-server ingress contention
// (per-client bandwidth shrinks as clients pile on), aggregates energy
// across the fleet, and reproduces the introduction's motivating
// arithmetic — HACC-class snapshot sets needing ~10 hours at 500 GB/s
// aggregate bandwidth.
package cluster

import (
	"fmt"
	"math"

	"lcpio/internal/dvfs"
	"lcpio/internal/netsim"
	"lcpio/internal/nfs"
	"lcpio/internal/phases"
)

// Config describes a homogeneous dump fleet.
type Config struct {
	// Nodes in the fleet (identical, so one representative node is
	// simulated and energy is aggregated). 0 means 1.
	Nodes int
	// Chip name (dvfs.ChipByName); empty means Broadwell.
	Chip string
	// PerNodeBytes of uncompressed snapshot data per node.
	PerNodeBytes int64
	// Codec ("sz"/"zfp") and range-relative error bound; Ratio is the
	// measured compression ratio to assume (<=1 disables compression and
	// dumps raw).
	Codec string
	RelEB float64
	Ratio float64
	// ServerIngressBps is the shared storage ingress capacity; per-client
	// wire bandwidth is min(client NIC, ingress/Nodes). 0 means 80 Gbps.
	ServerIngressBps float64
}

func (c Config) normalized() (Config, error) {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.Chip == "" {
		c.Chip = "Broadwell"
	}
	if c.PerNodeBytes < 0 {
		return c, fmt.Errorf("cluster: negative per-node bytes")
	}
	if c.Codec == "" {
		c.Codec = "sz"
	}
	if c.RelEB == 0 {
		c.RelEB = 1e-3
	}
	if c.ServerIngressBps <= 0 {
		c.ServerIngressBps = 80e9
	}
	return c, nil
}

// Result aggregates a fleet dump.
type Result struct {
	Nodes           int
	PerNodeBytes    int64
	CompressedBytes int64 // per node, what each node ships
	EffectiveBps    float64

	// Per-node measurements.
	NodeCompressSeconds float64
	NodeTransitSeconds  float64
	NodeJoules          float64

	// Fleet aggregates.
	WallSeconds float64
	TotalJoules float64
}

func (r Result) String() string {
	return fmt.Sprintf("%d nodes x %d B: wall %.1f s, fleet energy %.1f MJ (%.1f kJ/node)",
		r.Nodes, r.PerNodeBytes, r.WallSeconds, r.TotalJoules/1e6, r.NodeJoules/1e3)
}

// Dump simulates the fleet dump with each node's compress and write legs
// priced at the rule's clocks (the zero Rule is Eqn 3, phases.BaseRule the
// untuned schedule) and aggregates energy. All nodes are identical, so the
// representative node's wall time is the fleet's.
func Dump(cfg Config, rule phases.Rule) (Result, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return Result{}, err
	}
	chip, err := dvfs.ChipByName(cfg.Chip)
	if err != nil {
		return Result{}, err
	}

	// Contended per-client link: the shared server ingress divides across
	// concurrent writers.
	link := netsim.TenGbE()
	perClient := cfg.ServerIngressBps / float64(cfg.Nodes)
	if perClient < link.BandwidthBps {
		link.BandwidthBps = perClient
	}
	mount := nfs.DefaultMount()
	mount.Link = link
	// The shared server splits its absorption bandwidth too.
	mount.ServerBWBps = math.Max(perClient, 1e6)

	pr := phases.NewPricer(chip, rule)
	var compLeg phases.Leg
	compressedBytes := cfg.PerNodeBytes
	if cfg.Ratio > 1 {
		compressedBytes = int64(float64(cfg.PerNodeBytes) / cfg.Ratio)
		comp, err := pr.Compress(cfg.Codec, cfg.PerNodeBytes, cfg.RelEB, cfg.Ratio)
		if err != nil {
			return Result{}, err
		}
		if compLeg, err = pr.Leg(comp); err != nil {
			return Result{}, err
		}
	}
	transLeg, err := pr.Leg(pr.Move(mount.Write, compressedBytes))
	if err != nil {
		return Result{}, err
	}

	nodeSeconds := compLeg.Seconds + transLeg.Seconds
	nodeJoules := compLeg.Joules + transLeg.Joules
	eff := 0.0
	if nodeSeconds > 0 {
		eff = float64(cfg.PerNodeBytes) * 8 / nodeSeconds
	}
	return Result{
		Nodes:               cfg.Nodes,
		PerNodeBytes:        cfg.PerNodeBytes,
		CompressedBytes:     compressedBytes,
		EffectiveBps:        eff,
		NodeCompressSeconds: compLeg.Seconds,
		NodeTransitSeconds:  transLeg.Seconds,
		NodeJoules:          nodeJoules,
		WallSeconds:         nodeSeconds,
		TotalJoules:         nodeJoules * float64(cfg.Nodes),
	}, nil
}

// TransmitHours reproduces the introduction's motivating arithmetic: hours
// to move `bytes` at `aggregateBytesPerSec` (e.g. HACC snapshot sets at
// 500 GB/s need ~10 hours).
func TransmitHours(bytes int64, aggregateBytesPerSec float64) float64 {
	if aggregateBytesPerSec <= 0 {
		return math.Inf(1)
	}
	return float64(bytes) / aggregateBytesPerSec / 3600
}

// HACCSnapshotBytes is the aggregate snapshot volume implied by the
// paper's introduction: 10 hours at 500 GB/s.
const HACCSnapshotBytes = int64(10 * 3600 * 500e9)

// Comparison contrasts raw vs compressed vs compressed+tuned fleet dumps.
type Comparison struct {
	Raw        Result
	Compressed Result
	Tuned      Result
}

// CompressionSpeedup is the wall-time ratio raw/compressed.
func (c Comparison) CompressionSpeedup() float64 {
	if c.Compressed.WallSeconds <= 0 {
		return 0
	}
	return c.Raw.WallSeconds / c.Compressed.WallSeconds
}

// TuningEnergySavingsPct is the fleet energy saved by Eqn 3 on top of
// compression.
func (c Comparison) TuningEnergySavingsPct() float64 {
	if c.Compressed.TotalJoules <= 0 {
		return 0
	}
	return 100 * (1 - c.Tuned.TotalJoules/c.Compressed.TotalJoules)
}

// Compare runs the three fleet configurations: raw dump and compressed
// dump at base clock, and compressed dump at the given rule's clocks.
func Compare(cfg Config, rule phases.Rule) (Comparison, error) {
	raw := cfg
	raw.Ratio = 0
	r, err := Dump(raw, phases.BaseRule())
	if err != nil {
		return Comparison{}, err
	}
	cres, err := Dump(cfg, phases.BaseRule())
	if err != nil {
		return Comparison{}, err
	}
	tres, err := Dump(cfg, rule)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Raw: r, Compressed: cres, Tuned: tres}, nil
}
