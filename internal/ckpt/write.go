package ckpt

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"lcpio/internal/compress"
	"lcpio/internal/container"
	"lcpio/internal/ec"
	"lcpio/internal/nfs"
	"lcpio/internal/obs"
	"lcpio/internal/par"
	"lcpio/internal/retry"
	"lcpio/internal/stream"
	"lcpio/internal/wire"
)

// Field is one input field of a checkpoint set: every rank contributes an
// array of the same shape, compressed under the same absolute error bound.
type Field struct {
	Name       string
	Dims       []int
	ErrorBound float64
	// Data is indexed by rank.
	Data [][]float32
}

// Set is the input to Write.
type Set struct {
	Name  string
	Meta  string
	Codec string
	Ranks int
	// Fields must each carry Ranks data arrays matching Dims.
	Fields []Field
}

func (s Set) validate() error {
	if s.Ranks <= 0 || s.Ranks > maxRanks {
		return fmt.Errorf("ckpt: rank count %d outside [1,%d]", s.Ranks, maxRanks)
	}
	if len(s.Fields) == 0 || len(s.Fields) > maxFields {
		return fmt.Errorf("ckpt: field count %d outside [1,%d]", len(s.Fields), maxFields)
	}
	if s.Ranks*len(s.Fields) > maxChunks {
		return fmt.Errorf("ckpt: %d chunks exceed cap %d", s.Ranks*len(s.Fields), maxChunks)
	}
	if s.Codec == "" {
		return errors.New("ckpt: empty codec")
	}
	if err := compress.CheckName(s.Codec); err != nil {
		return err
	}
	if len(s.Name) > maxNameLen || len(s.Meta) > maxMetaLen {
		return errors.New("ckpt: set name or meta too long")
	}
	for fi, f := range s.Fields {
		if f.Name == "" || len(f.Name) > maxNameLen {
			return fmt.Errorf("ckpt: field %d has invalid name %q", fi, f.Name)
		}
		if !(f.ErrorBound > 0) || math.IsInf(f.ErrorBound, 0) {
			return fmt.Errorf("ckpt: field %q has invalid error bound %v", f.Name, f.ErrorBound)
		}
		if len(f.Data) != s.Ranks {
			return fmt.Errorf("ckpt: field %q has %d rank arrays, want %d", f.Name, len(f.Data), s.Ranks)
		}
		for r, d := range f.Data {
			if err := wire.CheckDims("ckpt", len(d), f.Dims); err != nil {
				return fmt.Errorf("%w (field %q, rank %d)", err, f.Name, r)
			}
		}
	}
	return nil
}

// RetryPolicy caps the writer's retries of transient medium faults. It is a
// thin wrapper over the shared retry.Policy helper, which the nfs pipeline's
// retransmit waits price through too.
type RetryPolicy struct {
	// MaxAttempts per chunk (default 5).
	MaxAttempts int
	// BaseBackoff is the first retry's simulated delay (default 5 ms);
	// subsequent retries double it up to MaxBackoff (default 500 ms).
	BaseBackoff float64
	MaxBackoff  float64
}

// retryDefaults is the medium-fault backoff shape.
var retryDefaults = retry.Policy{MaxAttempts: 5, Base: 5e-3, Max: 500e-3}

// policy maps onto the shared helper, filling defaults.
func (r RetryPolicy) policy() retry.Policy {
	return retry.Policy{MaxAttempts: r.MaxAttempts, Base: r.BaseBackoff, Max: r.MaxBackoff}.
		Normalized(retryDefaults)
}

func (r RetryPolicy) normalized() RetryPolicy {
	p := r.policy()
	return RetryPolicy{MaxAttempts: p.MaxAttempts, BaseBackoff: p.Base, MaxBackoff: p.Max}
}

// backoff returns the capped exponential delay before retry `attempt`
// (1-based: the delay after the attempt'th failure).
func (r RetryPolicy) backoff(attempt int) float64 {
	return r.policy().Backoff(attempt)
}

// WriteOptions tunes the pipelined writer.
type WriteOptions struct {
	// Workers is the number of parallel chunk compressors (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds chunks dispatched but not yet drained to the
	// medium — the pipeline's backpressure window (0 = 2×Workers, floor
	// Workers+1). Compression stalls when the writer falls this far
	// behind.
	QueueDepth int
	// ChunkElems is the container's per-slab target (0 = container
	// default).
	ChunkElems int
	// Mount is the simulated NFS write path (zero value = DefaultMount);
	// its FaultConfig injects wire-level faults.
	Mount nfs.Mount
	// Retry caps medium-fault retries.
	Retry RetryPolicy
	// ParityRanks appends this many Reed–Solomon parity shards to every
	// field's rank stripe, so Restore can reconstruct up to this many lost
	// or corrupt ranks per field instead of reporting them (0 = none).
	ParityRanks int
	// Base makes the set a delta: only content the base chain lacks is
	// stored; unchanged chunks become by-reference manifest entries (see
	// OpenBase). nil writes a full set. On a delta set the parity layer
	// covers only locally-stored blobs.
	Base *Base
}

func (o WriteOptions) normalized() WriteOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 2 * o.Workers
	}
	if o.QueueDepth <= o.Workers {
		o.QueueDepth = o.Workers + 1
	}
	o.Retry = o.Retry.normalized()
	return o
}

// WriteResult reports what one Write produced and measured.
type WriteResult struct {
	Manifest *Manifest
	// FileBytes is the total set size on the medium; PayloadBytes the
	// compressed chunk bytes; RawBytes the uncompressed input.
	FileBytes    int64
	RawBytes     int64
	PayloadBytes int64
	Chunks       int
	// ParityRanks and ParityBytes report the erasure-coding layer: m
	// parity shards per field stripe and their total on-medium size
	// (included in FileBytes, excluded from PayloadBytes).
	ParityRanks int
	ParityBytes int64
	// Retries counts chunk write attempts beyond the first (transient
	// medium faults); WireRetransmits and WireShortWrites aggregate the
	// simulated NFS pipeline's injected faults.
	Retries         int64
	WireRetransmits int64
	WireShortWrites int64
	// MeanRelEB is the payload-weighted mean range-relative error bound,
	// feeding the machine package's cycle model.
	MeanRelEB float64
	// ECEncodeSeconds is the real wall time spent folding chunks into the
	// parity accumulators (0 without parity).
	ECEncodeSeconds float64
	// Delta-write statistics (zero on full sets). BaseName names
	// the base set; Blobs counts stored chunks; ChunksLocal / ChunksRef /
	// ChunksShared split the content-defined chunks into newly stored,
	// satisfied by a base reference, and satisfied by intra-set sharing.
	// LocalRawBytes / RefRawBytes are the corresponding raw byte splits.
	BaseName      string
	Blobs         int
	ChunksLocal   int
	ChunksRef     int
	ChunksShared  int
	LocalRawBytes int64
	RefRawBytes   int64
	// CompressWallSeconds is the real parallel-compression wall time.
	// SimWriteSeconds is the simulated NFS busy time of all chunk + manifest
	// transfers including retry backoff. SimSerialSeconds composes the two
	// with no overlap (compress everything, then write everything);
	// SimPipelinedSeconds replays the actual schedule — chunks drain while
	// later chunks compress — so the difference is the measured overlap win.
	CompressWallSeconds float64
	SimWriteSeconds     float64
	SimSerialSeconds    float64
	SimPipelinedSeconds float64
}

// Ratio is the overall compression ratio of the payload.
func (r *WriteResult) Ratio() float64 {
	if r.PayloadBytes == 0 {
		return 0
	}
	return float64(r.RawBytes) / float64(r.PayloadBytes)
}

// DedupRatio is the fraction of the set's raw bytes NOT stored as new
// payload — satisfied by base references or intra-set sharing. 0 on full
// sets.
func (r *WriteResult) DedupRatio() float64 {
	if r.RawBytes == 0 {
		return 0
	}
	return float64(r.RefRawBytes) / float64(r.RawBytes)
}

// localRatio is the measured compression ratio of this delta set's locally
// stored content: raw bytes of new blobs over their compressed size. 0 when
// the set stored nothing new (complete dedup).
func (r *WriteResult) localRatio() float64 {
	if r.PayloadBytes == 0 {
		return 0
	}
	return float64(r.LocalRawBytes) / float64(r.PayloadBytes)
}

// ParityOverhead is the parity layer's share of compressed payload bytes —
// the storage (and wire) premium paid for reconstructability.
func (r *WriteResult) ParityOverhead() float64 {
	if r.PayloadBytes == 0 {
		return 0
	}
	return float64(r.ParityBytes) / float64(r.PayloadBytes)
}

// OverlapMargin is the fraction of the serial schedule the pipeline saved:
// (serial − pipelined) / serial.
func (r *WriteResult) OverlapMargin() float64 {
	if r.SimSerialSeconds <= 0 {
		return 0
	}
	return (r.SimSerialSeconds - r.SimPipelinedSeconds) / r.SimSerialSeconds
}

// streamWriter is what distinguishes one kind of set from another on the
// write path: what a worker lane produces for one (rank, field) stream, and
// how the in-order drain commits it. Header, scheduler, parity fold, parity
// shards, manifest and footer are Write's and exist once.
type streamWriter struct {
	span, pipeline, stage string
	// lane returns one worker lane's producer.
	lane func() stream.ProduceFunc
	// commit stores what stream d.Idx produced and returns the bytes it added
	// to the medium — the stream's member of its field's parity stripe.
	commit func(w *setWriter, d stream.Item) (region []byte, err error)
}

// packFunc is the Pack of the packer a worker lane keeps from stream to
// stream (or the reason it has none).
type packFunc func(data []float32, dims []int, eb float64) ([]byte, error)

func lanePack(codec string, chunkElems int) packFunc {
	packer, err := container.NewPacker(codec, container.Options{ChunkElems: chunkElems, Parallelism: 1})
	if err != nil {
		return func([]float32, []int, float64) ([]byte, error) { return nil, err }
	}
	return packer.Pack
}

// PackLane returns one lane's producer of a full set's chunks: chunk idx is
// rank idx / fields' array of field idx % fields. It is where a full set's
// chunk is made — for Write's lanes and for svc.Client.Dump, which ships the
// chunks to the daemon instead — so the two dumps store the same bytes.
func PackLane(set *Set, chunkElems int) stream.ProduceFunc {
	pack, nFields := lanePack(set.Codec, chunkElems), len(set.Fields)
	return func(idx int) ([]byte, error) {
		f := &set.Fields[idx%nFields]
		return pack(f.Data[idx/nFields], f.Dims, f.ErrorBound)
	}
}

// fullWriter packs each (rank, field) array into one chunk of m.Chunks.
func fullWriter(set *Set, m *Manifest, chunkElems int) streamWriter {
	nFields := len(set.Fields)
	m.Chunks = make([]ChunkInfo, set.Ranks*nFields)
	return streamWriter{
		span: "ckpt.write", pipeline: "ckpt.write", stage: "compress",
		lane: func() stream.ProduceFunc { return PackLane(set, chunkElems) },
		commit: func(w *setWriter, d stream.Item) ([]byte, error) {
			m.Chunks[d.Idx] = ChunkInfo{Rank: d.Idx / nFields, Field: d.Idx % nFields,
				Offset: w.offset, Size: int64(len(d.Blob)), CRC: Digest(d.Blob)}
			if err := w.putData(d.Blob, d.AvailAt); err != nil {
				return nil, fmt.Errorf("ckpt: chunk %d: %w", d.Idx, err)
			}
			// The chunk itself is the stripe member: no region copy.
			return d.Blob, nil
		},
	}
}

// Write packages the set onto the medium through the pipelined scheduler
// (the shared stream.Engine): a bounded work queue feeds Workers parallel
// lanes, one reusable container.Packer each, while the caller's goroutine
// drains finished streams to the medium in logical order — so compression of
// stream k+1 overlaps the wire time of stream k, and the file is
// byte-identical at any worker count. Transient medium faults are retried
// with capped exponential backoff; wire faults come from the mount's own
// FaultConfig. With opts.Base the lanes classify content against the base
// and only what it lacks is stored (see delta.go); the path is otherwise the
// same.
func Write(med Medium, set Set, opts WriteOptions) (*WriteResult, error) {
	if err := set.validate(); err != nil {
		return nil, err
	}
	opts = opts.normalized()
	if opts.ParityRanks < 0 || opts.ParityRanks > maxParityRanks {
		return nil, fmt.Errorf("ckpt: parity ranks %d outside [0, %d]", opts.ParityRanks, maxParityRanks)
	}
	var coder *ec.Coder
	if opts.ParityRanks > 0 {
		var err error
		if coder, err = ec.New(set.Ranks, opts.ParityRanks); err != nil {
			return nil, err
		}
	}
	nFields := len(set.Fields)
	n := set.Ranks * nFields
	m := &Manifest{
		SetName:     set.Name,
		Meta:        set.Meta,
		Codec:       set.Codec,
		Ranks:       set.Ranks,
		Fields:      make([]FieldInfo, nFields),
		ParityRanks: opts.ParityRanks,
	}
	for i, f := range set.Fields {
		m.Fields[i] = FieldInfo{Name: f.Name, Dims: append([]int(nil), f.Dims...), ErrorBound: f.ErrorBound}
	}
	res := &WriteResult{Manifest: m, Chunks: n, ParityRanks: opts.ParityRanks}
	var sw streamWriter
	if opts.Base == nil {
		sw = fullWriter(&set, m, opts.ChunkElems)
	} else {
		var err error
		if sw, err = deltaWriter(&set, opts.Base, m, res, opts.ChunkElems); err != nil {
			return nil, err
		}
	}
	span := obs.Start(sw.span)
	defer span.End()

	// Lanes 0..Workers-1 produce; lane Workers is the in-order writer on the
	// caller's goroutine; lane Workers+1 is the dispatcher.
	eng := stream.Start(n, stream.Options{
		Name:          sw.pipeline,
		Workers:       opts.Workers,
		QueueDepth:    opts.QueueDepth,
		ProduceStage:  sw.stage,
		QueueGauge:    "lcpio_ckpt_queue_depth",
		InFlightGauge: "lcpio_ckpt_bytes_in_flight",
	}, func(int) stream.ProduceFunc { return sw.lane() })
	defer eng.Close()

	wr := eng.Consumer()
	wr.Run("flush")
	if _, err := writeChunk(med, setHeader(), 0, opts, res); err != nil {
		wr.WaitInput()
		return nil, fmt.Errorf("ckpt: writing header: %w", err)
	}
	wr.WaitInput()

	// In-order drain via the engine's reorder buffer, on this goroutine. Each
	// committed region is folded into its field's parity accumulators as it
	// drains, so parity generation pipelines alongside the compression of
	// later streams; GF(2^8) accumulation is order- and padding-independent,
	// so the shards are byte-identical at any worker count or queue depth.
	w := &setWriter{med: med, opts: opts, res: res, offset: headerLen}
	var compressWall float64
	parity := make([][][]byte, nFields)
	if err := eng.Drain(func(d stream.Item) error {
		rank, fi := d.Idx/nFields, d.Idx%nFields
		if d.Err != nil {
			return fmt.Errorf("ckpt: chunk %d (rank %d, field %q): %w", d.Idx, rank, set.Fields[fi].Name, d.Err)
		}
		compressWall = max(compressWall, d.AvailAt)
		region, err := sw.commit(w, d)
		if err != nil {
			return err
		}
		if coder != nil && len(region) > 0 {
			ecStart := time.Now()
			if parity[fi], err = coder.UpdateParity(parity[fi], rank, region, opts.Workers); err != nil {
				return fmt.Errorf("ckpt: parity fold of chunk %d: %w", d.Idx, err)
			}
			res.ECEncodeSeconds += time.Since(ecStart).Seconds()
		}
		return nil
	}); err != nil {
		return nil, err
	}
	wr.Run("flush")

	// Parity shards land after the data payload, field-major, then manifest
	// and footer — all on the same retry/transfer path as the payload.
	if coder != nil {
		m.ParityChunks = make([]ChunkInfo, nFields*opts.ParityRanks)
		for i := range m.ParityChunks {
			fi, j := i/opts.ParityRanks, i%opts.ParityRanks
			var shard []byte // stays empty when no rank of the field stored a byte
			if parity[fi] != nil {
				shard = parity[fi][j]
			}
			m.ParityChunks[i] = ChunkInfo{Rank: set.Ranks + j, Field: fi,
				Offset: w.offset, Size: int64(len(shard)), CRC: Digest(shard)}
			if err := w.put(shard, 0); err != nil {
				return nil, fmt.Errorf("ckpt: parity shard (field %q, %d): %w", set.Fields[fi].Name, j, err)
			}
			res.ParityBytes += int64(len(shard))
			obs.Add("lcpio_ckpt_parity_bytes_written_total", int64(len(shard)))
		}
	}
	mb, foot := setTail(m, w.offset)
	if err := w.put(mb, 0); err != nil {
		return nil, fmt.Errorf("ckpt: writing manifest: %w", err)
	}
	if _, err := writeChunk(med, foot, w.offset, opts, res); err != nil {
		return nil, fmt.Errorf("ckpt: writing footer: %w", err)
	}

	res.Blobs = len(m.Blobs)
	res.FileBytes = w.offset + footerLen
	res.RawBytes = m.RawBytes()
	res.CompressWallSeconds = compressWall
	// The parity fold is writer-side CPU work; it extends both schedules
	// equally (the serial schedule would run it after compressing).
	res.SimPipelinedSeconds = w.clock + res.ECEncodeSeconds
	res.SimSerialSeconds = compressWall + res.SimWriteSeconds + res.ECEncodeSeconds
	res.MeanRelEB = meanRelEB(set)
	obs.AddFloat("lcpio_ckpt_sim_write_seconds_total", res.SimWriteSeconds)
	obs.Set("lcpio_ckpt_queue_depth", 0)
	obs.Set("lcpio_ckpt_bytes_in_flight", 0)
	return res, nil
}

// writeChunk drains one blob to the medium with capped exponential backoff
// on transient faults, resuming after short writes, and returns the
// simulated NFS time of the transfer (retries add backoff plus the resent
// bytes' wire time).
func writeChunk(med Medium, blob []byte, off int64, opts WriteOptions, res *WriteResult) (float64, error) {
	tr := opts.Mount.Write(int64(len(blob)))
	res.WireRetransmits += tr.Retransmits
	res.WireShortWrites += tr.ShortWrites
	simSec := tr.NetworkSeconds
	wrote := 0
	for attempt := 1; ; attempt++ {
		n, err := med.WriteAt(blob[wrote:], off+int64(wrote))
		if n > 0 {
			wrote += n
		}
		if err == nil && wrote == len(blob) {
			return simSec, nil
		}
		if err == nil {
			err = fmt.Errorf("%w: short write (%d of %d bytes)", ErrTransient, wrote, len(blob))
		}
		if attempt >= opts.Retry.MaxAttempts {
			return simSec, fmt.Errorf("giving up after %d attempts: %w", attempt, err)
		}
		res.Retries++
		obs.Add("lcpio_ckpt_retries_total", 1)
		backoff := opts.Retry.backoff(attempt)
		// The resent tail costs wire time again, after the backoff.
		rt := opts.Mount.Write(int64(len(blob) - wrote))
		res.WireRetransmits += rt.Retransmits
		res.WireShortWrites += rt.ShortWrites
		simSec += backoff + rt.NetworkSeconds
	}
}

// MeanRelEB returns the raw-byte-weighted mean of each field's
// range-relative error bound — the knob the machine package's cycle model
// takes. It is data-dependent (field value ranges), so a client dumping a
// set over the checkpoint service computes it locally and ships the scalar;
// the daemon cannot derive it from geometry alone.
func (s Set) MeanRelEB() float64 { return meanRelEB(s) }

// meanRelEB is the raw-byte-weighted mean of each field's range-relative
// error bound — the knob the machine package's cycle model takes.
//
// The value range is a scan of every element in front of every dump, so the
// ranks are scanned in parallel, in float32: widening is exact and keeps
// order, so the extrema widened once are the float64 scan's (NaNs compare
// false and are skipped either way; which zero wins a tie cannot change
// hi - lo).
func meanRelEB(set Set) float64 {
	var wsum, sum float64
	for _, f := range set.Fields {
		ext := make([][2]float32, len(f.Data))
		par.Run(len(f.Data), runtime.GOMAXPROCS(0), func(r int) {
			lo, hi := float32(math.Inf(1)), float32(math.Inf(-1))
			for _, v := range f.Data[r] {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			ext[r] = [2]float32{lo, hi}
		})
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, e := range ext {
			if l := float64(e[0]); l < lo {
				lo = l
			}
			if h := float64(e[1]); h > hi {
				hi = h
			}
		}
		rng := hi - lo
		if !(rng > 0) {
			rng = 1
		}
		w := float64(len(f.Data)) * float64(len(f.Data[0]))
		wsum += w
		sum += w * f.ErrorBound / rng
	}
	if wsum == 0 {
		return 1e-3
	}
	return sum / wsum
}
