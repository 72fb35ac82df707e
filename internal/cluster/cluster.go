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

	"lcpio/internal/advisor"
	"lcpio/internal/ckpt"
	"lcpio/internal/dedup"
	"lcpio/internal/dvfs"
	"lcpio/internal/netsim"
	"lcpio/internal/nfs"
	"lcpio/internal/phases"
)

// Config describes a homogeneous dump fleet.
type Config struct {
	// Nodes in the fleet (identical, so one representative node is
	// simulated and energy is aggregated).
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
	// CompressionFraction and WritingFraction of base clock (Eqn 3);
	// zero means base clock (no tuning).
	CompressionFraction float64
	WritingFraction     float64
	// CkptFields and CkptRanksPerNode, when both positive, model each
	// node's dump as a checkpoint set (internal/ckpt): a small sampled set
	// with the same geometry is pushed through the real ckpt.Write
	// pipeline and its measured on-medium size — manifest and per-chunk
	// framing, plus Reed–Solomon parity shards when CkptParityRanks > 0 —
	// is scaled to the node's compressed volume, so fleet traffic reflects
	// what the writer actually emits rather than bare payload. Geometries
	// too large to sample (fields × ranks beyond maxSampledCkptChunks)
	// fall back to the analytic estimate.
	CkptFields       int
	CkptRanksPerNode int
	// CkptParityRanks appends this many parity shards per field stripe;
	// their bytes ride the wire as extra Writing-class traffic. Requires
	// the checkpoint layout fields above.
	CkptParityRanks int
	// CkptChurnRate, in (0,1), models each dump as an incremental
	// checkpoint (a ckpt delta set) against the previous one: roughly this
	// fraction of each node's state changed since the last dump. A sampled
	// base+delta write pair through the real dedup pipeline measures how
	// much the delta payload shrinks at this churn, the wire volume scales
	// by that measured factor, and every node pays the dedup pass
	// (chunking + digesting its full raw state) as extra
	// Compression-class work. 0 disables; requires the checkpoint layout
	// fields above.
	CkptChurnRate float64
	// WireCodec enables in-transit compression for raw dumps (Ratio <= 1):
	// each node compresses its snapshot on the wire at WireRelEB with the
	// measured WireRatio, shrinking transfer volume at the cost of codec
	// work at the compression clock. Setting it alongside Ratio > 1 is an
	// error — already-compressed payloads do not re-compress on the wire.
	// The result reports the per-client link bandwidth at which the scheme
	// stops paying (phases.WireBreakEven).
	WireCodec string
	// WireRelEB is the range-relative error bound for the wire codec
	// (0 = 1e-3).
	WireRelEB float64
	// WireRatio is the measured wire compression ratio; required > 1 when
	// WireCodec is set.
	WireRatio float64
	// Advise, when true, hands the fleet's configuration to the online
	// advisor (internal/advisor): a sketch of a representative field picks
	// the codec, error bound, projected ratio, and both clock settings
	// (as fractions of base) that minimize modeled per-node energy under
	// AdviseMinPSNR, overriding Codec/RelEB/Ratio and the tuning
	// fractions. The advisor prices the write leg against this fleet's
	// contended per-client mount, so the pick shifts as nodes pile onto
	// the shared ingress. Incompatible with WireCodec (the advisor's wire
	// axis needs a daemon link, not an NFS mount).
	Advise bool
	// AdviseMinPSNR is the advisor's quality floor in dB (0 = 60).
	AdviseMinPSNR float64
	// Seed varies the sampled probe fields (advisor sketch, dedup churn
	// placement); the priced legs themselves are deterministic.
	Seed int64
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
	if c.CompressionFraction <= 0 || c.CompressionFraction > 1 {
		c.CompressionFraction = 1
	}
	if c.WritingFraction <= 0 || c.WritingFraction > 1 {
		c.WritingFraction = 1
	}
	if c.CkptParityRanks < 0 {
		return c, fmt.Errorf("cluster: negative parity ranks")
	}
	if c.CkptParityRanks > 0 && (c.CkptFields <= 0 || c.CkptRanksPerNode <= 0) {
		return c, fmt.Errorf("cluster: CkptParityRanks needs the checkpoint layout (CkptFields, CkptRanksPerNode)")
	}
	if c.CkptChurnRate < 0 || c.CkptChurnRate >= 1 {
		if c.CkptChurnRate != 0 {
			return c, fmt.Errorf("cluster: CkptChurnRate %g outside (0,1)", c.CkptChurnRate)
		}
	}
	if c.CkptChurnRate > 0 && (c.CkptFields <= 0 || c.CkptRanksPerNode <= 0) {
		return c, fmt.Errorf("cluster: CkptChurnRate needs the checkpoint layout (CkptFields, CkptRanksPerNode)")
	}
	if c.Advise {
		if c.WireCodec != "" {
			return c, fmt.Errorf("cluster: Advise picks the storage codec and cannot combine with WireCodec")
		}
		if c.AdviseMinPSNR <= 0 {
			c.AdviseMinPSNR = 60
		}
	}
	if c.WireCodec != "" {
		if c.Ratio > 1 {
			return c, fmt.Errorf("cluster: WireCodec compresses raw dumps in transit; combine it with Ratio <= 1")
		}
		if c.WireRatio <= 1 {
			return c, fmt.Errorf("cluster: WireCodec needs a measured WireRatio > 1, got %g", c.WireRatio)
		}
		if c.WireRelEB == 0 {
			c.WireRelEB = 1e-3
		}
	}
	return c, nil
}

// Result aggregates a fleet dump.
type Result struct {
	Nodes           int
	PerNodeBytes    int64
	CompressedBytes int64 // per node
	// CkptOverheadBytes is the per-node checkpoint framing (manifest +
	// chunk table) added to the wire when the checkpoint layout is set.
	CkptOverheadBytes int64
	// CkptParityBytes is the per-node Reed–Solomon parity traffic
	// (CkptParityRanks > 0 only).
	CkptParityBytes int64
	// CkptMeasured is true when the framing and parity shares came from a
	// real sampled ckpt.Write rather than the analytic estimate.
	CkptMeasured bool
	// CkptDedupRatio is the measured (or, beyond the sampling cap,
	// analytic) fraction of raw bytes the incremental dump satisfied by
	// base references instead of new payload. 0 unless CkptChurnRate is
	// set.
	CkptDedupRatio float64
	// Advised is true when the online advisor picked the configuration;
	// AdvisedCodec/AdvisedRelEB/AdvisedRatio echo its pick and
	// AdvisedCompressGHz/AdvisedWriteGHz the clocks it chose.
	Advised            bool
	AdvisedCodec       string
	AdvisedRelEB       float64
	AdvisedRatio       float64
	AdvisedCompressGHz float64
	AdvisedWriteGHz    float64
	// WireCompressed is true when the dump shipped through an in-transit
	// wire codec; WireBreakEvenBps is then the per-client link bandwidth
	// above which compressing on the wire stops saving wall time (node-side
	// compute only — the ingest server's inflate is not this node's bill).
	WireCompressed   bool
	WireBreakEvenBps float64
	EffectiveBps     float64

	// Per-node measurements.
	NodeCompressSeconds float64
	NodeDedupSeconds    float64
	NodeTransitSeconds  float64
	NodeJoules          float64

	// Fleet aggregates.
	WallSeconds float64
	TotalJoules float64
}

// WireBytes is the per-node volume actually transmitted: compressed
// payload plus checkpoint framing plus parity shards.
func (r Result) WireBytes() int64 {
	return r.CompressedBytes + r.CkptOverheadBytes + r.CkptParityBytes
}

func (r Result) String() string {
	return fmt.Sprintf("%d nodes x %d B: wall %.1f s, fleet energy %.1f MJ (%.1f kJ/node)",
		r.Nodes, r.PerNodeBytes, r.WallSeconds, r.TotalJoules/1e6, r.NodeJoules/1e3)
}

// adviseProbe synthesizes the smooth representative field the advisor
// sketches when Advise hands it the fleet configuration: the same
// sinusoid family the checkpoint overhead probe dumps, at a volume large
// enough for stable segment sampling.
func adviseProbe(seed int64) ([]float32, []int) {
	dims := []int{48, 48, 48}
	data := make([]float32, dims[0]*dims[1]*dims[2])
	phase := float64(seed % 97)
	for i := range data {
		x := float64(i) / 7
		data[i] = float32(math.Sin(x+phase) + 0.01*math.Cos(x/13))
	}
	return data, dims
}

// maxSampledCkptChunks caps the geometry (fields × ranks) the fleet model
// will push through a real ckpt.Write to measure overheads; beyond it the
// analytic estimate is used instead.
const maxSampledCkptChunks = 4096

// sampleCkptOverhead writes a small checkpoint set with the fleet's exact
// geometry — CkptFields fields across CkptRanksPerNode ranks, the fleet's
// codec, CkptParityRanks parity shards — through the real ckpt.Write
// pipeline and measures what the writer actually emits: the absolute
// framing bytes (manifest + chunk table + header/footer) and the parity
// bytes as a fraction of the compressed payload. Framing depends only on
// the geometry, so it transfers exactly; parity is proportional to the
// payload it protects, so the fraction scales.
func sampleCkptSet(cfg Config, dim int) ckpt.Set {
	fields := make([]ckpt.Field, cfg.CkptFields)
	for fi := range fields {
		f := ckpt.Field{
			Name:       fmt.Sprintf("field%03d", fi),
			Dims:       []int{dim, dim},
			ErrorBound: math.Max(cfg.RelEB, 1e-6),
		}
		for r := 0; r < cfg.CkptRanksPerNode; r++ {
			d := make([]float32, dim*dim)
			for i := range d {
				d[i] = float32(math.Sin(float64(i)/7 + float64(r) + float64(fi)/3))
			}
			f.Data = append(f.Data, d)
		}
		fields[fi] = f
	}
	return ckpt.Set{
		Name:   "fleet-sample",
		Meta:   "cluster overhead probe",
		Codec:  cfg.Codec,
		Ranks:  cfg.CkptRanksPerNode,
		Fields: fields,
	}
}

func sampleCkptOverhead(cfg Config) (framing int64, parityFrac float64, err error) {
	res, err := ckpt.Write(ckpt.NewMemMedium(), sampleCkptSet(cfg, 8), ckpt.WriteOptions{
		Workers: 2, ParityRanks: cfg.CkptParityRanks})
	if err != nil {
		return 0, 0, fmt.Errorf("cluster: sampling ckpt overhead: %w", err)
	}
	framing = res.FileBytes - res.PayloadBytes - res.ParityBytes
	if res.PayloadBytes > 0 {
		parityFrac = float64(res.ParityBytes) / float64(res.PayloadBytes)
	}
	return framing, parityFrac, nil
}

// sampleCkptDedup writes a base+delta checkpoint pair with the fleet's
// geometry and measured churn through the real dedup pipeline (a ckpt
// delta set): the base set is dumped in full, a contiguous seeded region of each
// rank covering CkptChurnRate of its payload is perturbed beyond the error
// bound, and the next dump dedups against the restored base. It measures
// the delta's framing bytes (manifest with base references), the payload
// shrink factor relative to the full dump, the parity share, and the
// achieved dedup ratio.
func sampleCkptDedup(cfg Config) (framing int64, payloadFrac, parityFrac, dedupRatio float64, err error) {
	fail := func(e error) (int64, float64, float64, float64, error) {
		return 0, 0, 0, 0, fmt.Errorf("cluster: sampling ckpt dedup: %w", e)
	}
	// Streams must be big enough to split into several content-defined
	// chunks at a small geometry.
	const dim = 32
	p := dedup.Params{MinSize: 256, AvgSize: 1024, MaxSize: 4096}
	full := sampleCkptSet(cfg, dim)
	baseMed := ckpt.NewMemMedium()
	fullRes, err := ckpt.Write(baseMed, full, ckpt.WriteOptions{
		Workers: 2, ParityRanks: cfg.CkptParityRanks})
	if err != nil {
		return fail(err)
	}
	base, err := ckpt.OpenBase(baseMed, nil, p, ckpt.RestoreOptions{Workers: 2})
	if err != nil {
		return fail(err)
	}
	next := full
	next.Name = "fleet-sample-delta"
	next.Fields = make([]ckpt.Field, len(full.Fields))
	for fi, f := range full.Fields {
		nf := f
		nf.Data = make([][]float32, len(f.Data))
		for r, data := range f.Data {
			d := append([]float32(nil), data...)
			n := int(cfg.CkptChurnRate * float64(len(d)))
			if n < 1 {
				n = 1
			}
			start := int((cfg.Seed + int64(r)*31 + int64(fi)*7) % int64(len(d)-n+1))
			if start < 0 {
				start += len(d) - n + 1
			}
			for i := start; i < start+n; i++ {
				d[i] += float32(10 * f.ErrorBound)
			}
			nf.Data[r] = d
		}
		next.Fields[fi] = nf
	}
	deltaRes, err := ckpt.Write(ckpt.NewMemMedium(), next, ckpt.WriteOptions{
		Workers: 2, ParityRanks: cfg.CkptParityRanks, Base: base})
	if err != nil {
		return fail(err)
	}
	framing = deltaRes.FileBytes - deltaRes.PayloadBytes - deltaRes.ParityBytes
	if fullRes.PayloadBytes > 0 {
		payloadFrac = float64(deltaRes.PayloadBytes) / float64(fullRes.PayloadBytes)
	}
	if deltaRes.PayloadBytes > 0 {
		parityFrac = float64(deltaRes.ParityBytes) / float64(deltaRes.PayloadBytes)
	}
	return framing, payloadFrac, parityFrac, deltaRes.DedupRatio(), nil
}

// Dump simulates the fleet dump and aggregates energy. All nodes are
// identical, so the representative node's wall time is the fleet's.
func Dump(cfg Config) (Result, error) {
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
	mount.ServerBWBps = math.Max(cfg.ServerIngressBps/float64(cfg.Nodes), 1e6)

	// Hand configuration to the online advisor before anything is priced:
	// it sketches a representative field and searches (codec, bound,
	// frequency pair) against this fleet's contended mount. Its clocks
	// become the tuning fractions, so the rest of the model prices exactly
	// what the advisor chose.
	var dec advisor.Decision
	if cfg.Advise {
		ctrl, err := advisor.New(advisor.Config{Chip: cfg.Chip, Mount: mount})
		if err != nil {
			return Result{}, err
		}
		data, dims := adviseProbe(cfg.Seed)
		sk, err := ctrl.Sketch(data, dims)
		if err != nil {
			return Result{}, err
		}
		dec, err = ctrl.Decide(sk, advisor.Request{
			RawBytes: cfg.PerNodeBytes, MinPSNR: cfg.AdviseMinPSNR,
		})
		if err != nil {
			return Result{}, fmt.Errorf("cluster: advisor: %w", err)
		}
		cfg.Codec, cfg.RelEB, cfg.Ratio = dec.Codec, dec.RelEB, dec.Predicted.Ratio
		cfg.CompressionFraction = dec.CompressGHz / chip.BaseGHz
		cfg.WritingFraction = dec.WriteGHz / chip.BaseGHz
	}

	// Sample the checkpoint geometry first: with a churn rate set, the
	// probe's measured fractions decide how much raw state each node
	// actually compresses and ships.
	var overhead int64
	var measured bool
	payloadFrac := 1.0 // delta payload / full payload
	parityFrac := 0.0  // parity / shipped payload
	var dedupRatio float64
	// The node's legs are priced at the (possibly advisor-chosen) tuning
	// fractions; normalized() already mapped "unset" to base clock.
	pr := phases.NewPricer(chip, phases.Rule{
		CompressionFraction: cfg.CompressionFraction, WritingFraction: cfg.WritingFraction})
	var dedupLeg, compLeg phases.Leg
	if cfg.CkptFields > 0 && cfg.CkptRanksPerNode > 0 {
		sampled := cfg.CkptFields*cfg.CkptRanksPerNode <= maxSampledCkptChunks
		switch {
		case sampled && cfg.CkptChurnRate > 0:
			framing, pf, prf, dr, err := sampleCkptDedup(cfg)
			if err != nil {
				return Result{}, err
			}
			// The delta payload shrinks by the measured factor; framing is
			// the delta manifest (absolute, geometry-bound); parity covers
			// only the locally stored blobs.
			overhead, payloadFrac, parityFrac, dedupRatio = framing, pf, prf, dr
			measured = true
		case sampled:
			framing, prf, err := sampleCkptOverhead(cfg)
			if err != nil {
				return Result{}, err
			}
			// Framing scales with the chunk-table geometry (absolute);
			// parity scales with the payload it protects (proportional).
			overhead, parityFrac = framing, prf
			measured = true
		default:
			overhead = ckpt.OverheadBytes(cfg.CkptFields, cfg.CkptRanksPerNode, 0, 0)
			if cfg.CkptChurnRate > 0 {
				// Analytic dedup estimate: payload scales with churn.
				payloadFrac = cfg.CkptChurnRate
				dedupRatio = 1 - cfg.CkptChurnRate
			}
			// Analytic parity estimate: m shards per field stripe, each the
			// field's max chunk — approximately m/ranks of the payload.
			parityFrac = float64(cfg.CkptParityRanks) / float64(cfg.CkptRanksPerNode)
		}
		if cfg.CkptChurnRate > 0 {
			// Every node hashes its full raw state to find the churn,
			// regardless of how little it ends up writing.
			hash, err := pr.Dedup(cfg.PerNodeBytes)
			if err != nil {
				return Result{}, err
			}
			if dedupLeg, err = pr.Leg(hash); err != nil {
				return Result{}, err
			}
		}
	}

	compressedBytes := cfg.PerNodeBytes
	if cfg.Ratio > 1 {
		compressedBytes = int64(float64(cfg.PerNodeBytes) / cfg.Ratio)
		// An incremental dump only compresses the raw bytes it stores —
		// the deduped share never reaches the codec.
		rawToCompress := cfg.PerNodeBytes
		if cfg.CkptChurnRate > 0 {
			rawToCompress = int64((1 - dedupRatio) * float64(cfg.PerNodeBytes))
		}
		comp, err := pr.Compress(cfg.Codec, rawToCompress, cfg.RelEB, cfg.Ratio)
		if err != nil {
			return Result{}, err
		}
		if compLeg, err = pr.Leg(comp); err != nil {
			return Result{}, err
		}
	}
	compressedBytes = int64(payloadFrac * float64(compressedBytes))

	// In-transit wire compression for raw dumps: the payload shrinks on
	// the wire only, and the node pays the wire codec at the compression
	// clock instead of a storage codec.
	var wireBE float64
	if cfg.WireCodec != "" {
		rawWire := compressedBytes
		compressedBytes = int64(float64(rawWire) / cfg.WireRatio)
		comp, err := pr.Compress(cfg.WireCodec, rawWire, cfg.WireRelEB, cfg.WireRatio)
		if err != nil {
			return Result{}, err
		}
		if compLeg, err = pr.Leg(comp); err != nil {
			return Result{}, err
		}
		wireBE = phases.WireBreakEven(link, rawWire, compressedBytes, compLeg.Seconds)
	}
	parityBytes := int64(parityFrac * float64(compressedBytes))
	transLeg, err := pr.Leg(pr.Move(mount.Write, compressedBytes+overhead+parityBytes))
	if err != nil {
		return Result{}, err
	}

	nodeSeconds := compLeg.Seconds + dedupLeg.Seconds + transLeg.Seconds
	nodeJoules := compLeg.Joules + dedupLeg.Joules + transLeg.Joules
	eff := 0.0
	if nodeSeconds > 0 {
		eff = float64(cfg.PerNodeBytes) * 8 / nodeSeconds
	}
	return Result{
		Nodes:               cfg.Nodes,
		PerNodeBytes:        cfg.PerNodeBytes,
		CompressedBytes:     compressedBytes,
		CkptOverheadBytes:   overhead,
		CkptParityBytes:     parityBytes,
		CkptMeasured:        measured,
		CkptDedupRatio:      dedupRatio,
		Advised:             cfg.Advise,
		AdvisedCodec:        dec.Codec,
		AdvisedRelEB:        dec.RelEB,
		AdvisedRatio:        dec.Predicted.Ratio,
		AdvisedCompressGHz:  dec.CompressGHz,
		AdvisedWriteGHz:     dec.WriteGHz,
		WireCompressed:      cfg.WireCodec != "",
		WireBreakEvenBps:    wireBE,
		EffectiveBps:        eff,
		NodeCompressSeconds: compLeg.Seconds,
		NodeDedupSeconds:    dedupLeg.Seconds,
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

// Compare runs the three fleet configurations: raw dump, compressed dump
// at base clock, and compressed dump with the given tuning fractions.
func Compare(cfg Config, compFraction, writeFraction float64) (Comparison, error) {
	raw := cfg
	raw.Ratio = 0
	raw.CompressionFraction, raw.WritingFraction = 1, 1
	r, err := Dump(raw)
	if err != nil {
		return Comparison{}, err
	}
	comp := cfg
	comp.CompressionFraction, comp.WritingFraction = 1, 1
	cres, err := Dump(comp)
	if err != nil {
		return Comparison{}, err
	}
	tuned := cfg
	tuned.CompressionFraction, tuned.WritingFraction = compFraction, writeFraction
	tres, err := Dump(tuned)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Raw: r, Compressed: cres, Tuned: tres}, nil
}
