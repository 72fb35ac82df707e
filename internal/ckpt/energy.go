package ckpt

import (
	"fmt"
	"math"

	"lcpio/internal/dvfs"
	"lcpio/internal/machine"
	"lcpio/internal/nfs"
	"lcpio/internal/phases"
)

// CampaignOptions turns one measured WriteResult into a multi-iteration
// checkpoint (or checkpoint/restart) campaign for the phase planner.
type CampaignOptions struct {
	// Iterations is the number of checkpoint cycles (0 = 1).
	Iterations int
	// ComputeSeconds is the application compute time between checkpoints
	// at base clock.
	ComputeSeconds float64
	// Chip the campaign runs on (nil = Broadwell, the paper's primary).
	Chip *dvfs.Chip
	// WithRestore appends read + decompress phases per iteration, the
	// checkpoint/restart shape of Moran et al.
	WithRestore bool
}

// campaignMount is the simulated NFS path a campaign's transfers ride: the
// zero Mount, which prices as nfs.DefaultMount.
var campaignMount nfs.Mount

func (o CampaignOptions) normalized() CampaignOptions {
	if o.Iterations <= 0 {
		o.Iterations = 1
	}
	if o.Chip == nil {
		o.Chip = dvfs.Broadwell()
	}
	return o
}

// pricer resolves the campaign's chip under the paper's Eqn 3 rule
// (compression at 0.875× base, transfers at 0.85×).
func (o CampaignOptions) pricer() *phases.Pricer {
	return phases.NewPricer(o.Chip, phases.PaperRule())
}

// CampaignPlan builds a phases.Plan from this write's measured splits: the
// compression stage is parameterized by the set's codec, payload-weighted
// relative error bound, and *measured* ratio; the transfer stages replay
// the set's full on-medium size (payload + manifest framing) through the
// simulated mount. On a parity set (ParityRanks > 0) the write leg is split:
// the payload write covers FileBytes minus the parity shards, and a separate
// Writing-class "checkpoint-parity-write" phase carries the parity bytes, so
// the redundancy premium is itemized per iteration and tuned like any other
// NFS transfer. With WithRestore each iteration also reads the payload back
// and decompresses it — a clean restart never reads parity.
// A delta write has a different pipeline: a dedup pass over the
// full raw state (Compression-class: frequency-scaled CPU work), compression
// of only the locally-stored raw bytes at their measured ratio, and the
// (much smaller) delta-file write. WithRestore is not supported for delta
// sets — a delta restart also replays its base chain, which this result
// does not measure.
func (r *WriteResult) CampaignPlan(opts CampaignOptions) (phases.Plan, error) {
	opts = opts.normalized()
	pr := opts.pricer()
	m := r.Manifest
	if m.IsDelta() {
		if opts.WithRestore {
			return phases.Plan{}, fmt.Errorf("ckpt: WithRestore campaign not supported for delta sets")
		}
		dedup, err := pr.Dedup(r.RawBytes)
		if err != nil {
			return phases.Plan{}, err
		}
		compress, err := pr.Compress(m.Codec, r.LocalRawBytes, r.MeanRelEB, r.localRatio())
		if err != nil {
			return phases.Plan{}, err
		}
		return phases.Campaign(opts.Iterations, opts.ComputeSeconds,
			dedup.Named("checkpoint-dedup"),
			compress.Named("checkpoint-compress"),
			pr.Move(campaignMount.Write, r.FileBytes).Named("checkpoint-write")), nil
	}
	compress, err := pr.Compress(m.Codec, r.RawBytes, r.MeanRelEB, r.Ratio())
	if err != nil {
		return phases.Plan{}, err
	}
	payloadFile := r.FileBytes - r.ParityBytes
	stages := []phases.Phase{
		compress.Named("checkpoint-compress"),
		pr.Move(campaignMount.Write, payloadFile).Named("checkpoint-write"),
	}
	if r.ParityBytes > 0 {
		stages = append(stages, pr.Move(campaignMount.Write, r.ParityBytes).Named("checkpoint-parity-write"))
	}
	if opts.WithRestore {
		decompress, err := pr.Decompress(m.Codec, r.RawBytes, r.MeanRelEB, r.Ratio())
		if err != nil {
			return phases.Plan{}, err
		}
		stages = append(stages,
			pr.Move(campaignMount.Read, payloadFile).Named("restart-read"),
			decompress.Named("restart-decompress"))
	}
	return phases.Campaign(opts.Iterations, opts.ComputeSeconds, stages...), nil
}

// EnergyReport executes the campaign at base clock and under the paper's
// Eqn 3 rule and returns the comparison — the "what does tuned
// checkpointing save" answer for this set.
func (r *WriteResult) EnergyReport(opts CampaignOptions) (phases.Comparison, error) {
	opts = opts.normalized()
	pl, err := r.CampaignPlan(opts)
	if err != nil {
		return phases.Comparison{}, err
	}
	return phases.Compare(pl, phases.PaperRule(), machine.NewNode(opts.Chip, 1))
}

// ParityEnergy is the redundancy economics of one measured parity write:
// what the erasure-coding leg costs per checkpoint, what recovering a lost
// rank costs with parity (reconstruction) versus without (redump), and the
// per-checkpoint rank-loss probability above which carrying parity is the
// cheaper policy. All legs are costed at the paper's Eqn 3 clocks —
// transfers at 0.85× base, (re)compression at 0.875×.
type ParityEnergy struct {
	ParityRanks int
	ParityBytes int64
	// ParityJoules/ParitySeconds is the per-checkpoint premium: writing the
	// parity shards at the tuned I/O clock.
	ParityJoules  float64
	ParitySeconds float64
	// ReconstructJoules is the incremental cost of rebuilding a lost rank
	// during an already-running restore: fetching the parity shards over the
	// same mount (the GF arithmetic itself is bandwidth-bound and costed as
	// part of that transit).
	ReconstructJoules float64
	// RedumpJoules is what recovering without parity costs: recompress the
	// lost rank's raw share and rewrite its file share.
	RedumpJoules float64
	// BreakEvenLossProb is the per-checkpoint probability of losing a rank
	// at which the parity premium equals the expected redump saving:
	// ParityJoules = p · (RedumpJoules − ReconstructJoules). Below it,
	// plain dumps are cheaper; above it, parity pays for itself.
	// +Inf when reconstruction is not cheaper than redumping.
	BreakEvenLossProb float64
}

// ParityEnergy prices this write's erasure-coding layer under Eqn 3. It is
// only meaningful for parity sets; calling it on a plain result returns a zero
// report with BreakEvenLossProb = +Inf (no premium, nothing to break even).
func (r *WriteResult) ParityEnergy(opts CampaignOptions) (ParityEnergy, error) {
	opts = opts.normalized()
	pe := ParityEnergy{ParityRanks: r.ParityRanks, ParityBytes: r.ParityBytes}
	if r.ParityBytes <= 0 {
		pe.BreakEvenLossProb = math.Inf(1)
		return pe, nil
	}
	pr := opts.pricer()
	ranks := int64(r.Manifest.Ranks)
	recompress, err := pr.Compress(r.Manifest.Codec, r.RawBytes/ranks, r.MeanRelEB, r.Ratio())
	if err != nil {
		return ParityEnergy{}, err
	}
	t, err := pr.Price(
		pr.Move(campaignMount.Write, r.ParityBytes),
		pr.Move(campaignMount.Read, r.ParityBytes),
		recompress,
		pr.Move(campaignMount.Write, (r.FileBytes-r.ParityBytes)/ranks))
	if err != nil {
		return ParityEnergy{}, err
	}
	pe.ParityJoules, pe.ParitySeconds = t.Legs[0].Joules, t.Legs[0].Seconds
	pe.ReconstructJoules = t.Legs[1].Joules
	pe.RedumpJoules = t.Legs[2].Joules + t.Legs[3].Joules
	pe.BreakEvenLossProb = phases.ParityBreakEven(pe.ParityJoules, pe.RedumpJoules, pe.ReconstructJoules)
	return pe, nil
}

// DeltaEnergy is the incremental-checkpoint economics of one measured delta
// write against its measured full-dump baseline: what the dedup pass costs
// per checkpoint, what the delta actually cost (hash + compress churn +
// write the small file), what the equivalent full dump costs, and the churn
// rate at which the two meet. All legs are costed at the paper's Eqn 3
// clocks — transfers at 0.85× base, CPU passes (hashing, compression) at
// 0.875×.
type DeltaEnergy struct {
	// ChurnRate is the measured fraction of raw bytes this delta stored as
	// new blobs (LocalRawBytes / RawBytes).
	ChurnRate float64
	// DedupRatio is the fraction of raw bytes satisfied without new payload.
	DedupRatio float64
	// HashJoules is the per-checkpoint dedup pass: gear-chunking and
	// digesting the full raw state at the tuned compression clock.
	HashJoules float64
	// DeltaJoules prices this delta checkpoint end to end: the dedup pass,
	// compressing the locally stored raw bytes at their measured ratio, and
	// writing the delta file (manifest framing and parity included).
	DeltaJoules float64
	// FullJoules prices the measured full-dump alternative: compressing the
	// whole raw state at its measured ratio and writing the full file.
	FullJoules float64
	// NetSavedJoules = FullJoules − DeltaJoules: what this delta saved per
	// checkpoint. Negative when hashing cost more than the avoided writes.
	NetSavedJoules float64
	// BreakEvenChurn is the churn rate c* at which a delta checkpoint costs
	// exactly as much as a full dump, modelling delta cost as
	// HashJoules + framing + c·(full compress + write energy). Below c*
	// delta checkpointing wins; 0 if hashing alone already exceeds a full
	// dump, +Inf if a delta is cheaper at any churn.
	BreakEvenChurn float64
}

// DeltaEnergy prices this delta write under Eqn 3 against full, the
// measured full-dump result it replaces (typically the chain's base). It is
// only meaningful for delta results; calling it on a full-dump result
// returns an error, as does a baseline with mismatched raw size.
func (r *WriteResult) DeltaEnergy(full *WriteResult, opts CampaignOptions) (DeltaEnergy, error) {
	opts = opts.normalized()
	if !r.Manifest.IsDelta() {
		return DeltaEnergy{}, fmt.Errorf("ckpt: DeltaEnergy on a non-delta result")
	}
	if full == nil || full.Manifest.IsDelta() {
		return DeltaEnergy{}, fmt.Errorf("ckpt: DeltaEnergy baseline must be a full-dump result")
	}
	if full.RawBytes != r.RawBytes {
		return DeltaEnergy{}, fmt.Errorf("ckpt: baseline raw size %d != delta raw size %d",
			full.RawBytes, r.RawBytes)
	}
	pr := opts.pricer()
	de := DeltaEnergy{
		ChurnRate:  float64(r.LocalRawBytes) / float64(r.RawBytes),
		DedupRatio: r.DedupRatio(),
	}

	dedup, err := pr.Dedup(r.RawBytes)
	if err != nil {
		return DeltaEnergy{}, err
	}
	fullCompress, err := pr.Compress(full.Manifest.Codec, full.RawBytes, full.MeanRelEB, full.Ratio())
	if err != nil {
		return DeltaEnergy{}, err
	}
	// The last leg is the delta's manifest framing alone: the fixed write
	// cost a delta pays at any churn.
	t, err := pr.Price(
		dedup,
		pr.Move(campaignMount.Write, r.FileBytes),
		fullCompress,
		pr.Move(campaignMount.Write, full.FileBytes),
		pr.Move(campaignMount.Write, r.FileBytes-r.PayloadBytes-r.ParityBytes))
	if err != nil {
		return DeltaEnergy{}, err
	}
	de.HashJoules = t.Legs[0].Joules
	de.DeltaJoules = de.HashJoules + t.Legs[1].Joules
	if r.LocalRawBytes > 0 {
		compress, err := pr.Compress(r.Manifest.Codec, r.LocalRawBytes, r.MeanRelEB, r.localRatio())
		if err != nil {
			return DeltaEnergy{}, err
		}
		leg, err := pr.Leg(compress)
		if err != nil {
			return DeltaEnergy{}, err
		}
		de.DeltaJoules += leg.Joules
	}
	de.FullJoules = t.Legs[2].Joules + t.Legs[3].Joules
	de.NetSavedJoules = de.FullJoules - de.DeltaJoules
	de.BreakEvenChurn = phases.ChurnBreakEven(de.FullJoules, de.HashJoules, t.Legs[4].Joules)
	return de, nil
}
