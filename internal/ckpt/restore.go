package ckpt

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"

	"lcpio/internal/container"
	"lcpio/internal/dedup"
	"lcpio/internal/ec"
	"lcpio/internal/nfs"
	"lcpio/internal/obs"
	"lcpio/internal/par"
)

// RestoreOptions tunes Restore.
type RestoreOptions struct {
	// Workers is the number of parallel chunk readers/decompressors
	// (0 = GOMAXPROCS).
	Workers int
	// Retry caps per-chunk re-reads of transient faults and digest
	// mismatches.
	Retry RetryPolicy
	// AllowPartial turns unrecoverable chunks into a partial restore —
	// the affected ranks come back with nil Data and are reported in
	// Report.Failed / Report.MissingRanks — instead of failing the whole
	// restore.
	AllowPartial bool
	// Mount is the simulated NFS read path (zero value = DefaultMount).
	Mount nfs.Mount
	// Bases is the base chain for delta sets, immediate base first: Bases[0]
	// holds the set this one dedups against, Bases[1:] is that base's own
	// chain. Ignored for full sets. A delta set restored without its chain
	// fails with ErrBase.
	Bases []Medium
}

func (o RestoreOptions) normalized() RestoreOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	o.Retry = o.Retry.normalized()
	return o
}

// ChunkError reports one chunk that could not be recovered.
type ChunkError struct {
	Rank, Field int
	Err         error
}

func (c ChunkError) Error() string {
	return fmt.Sprintf("chunk (rank %d, field %d): %v", c.Rank, c.Field, c.Err)
}

// RestoreReport summarizes what Restore did and what it could not recover.
// The Failed, MissingRanks, ReconstructedRanks and ParityFailed lists are
// deterministic — sorted and deduplicated — regardless of worker count.
type RestoreReport struct {
	ChunksOK int
	// ChunksReread counts chunks that needed more than one read — the
	// digest caught a corrupted first read and only that chunk was
	// fetched again.
	ChunksReread int
	// ChunksReconstructed counts chunks whose re-reads were exhausted and
	// that were instead rebuilt byte-identically from the field stripe's
	// Reed–Solomon parity shards (on a delta set the unit is a stored blob).
	ChunksReconstructed int
	// ReconstructedRanks lists ranks with at least one reconstructed
	// chunk, sorted and deduplicated.
	ReconstructedRanks []int
	// ParityChunksRead counts parity shard fetches performed for
	// reconstruction; ParityFailed lists parity shards that were
	// themselves unrecoverable (these consume the erasure budget).
	ParityChunksRead int
	ParityFailed     []ChunkError
	// Retries counts read attempts beyond the first across all chunks.
	Retries int64
	// Failed lists every chunk that stayed unrecoverable after retries
	// AND reconstruction, sorted by (rank, field) and deduplicated.
	Failed []ChunkError
	// MissingRanks lists ranks for which no field could be recovered,
	// sorted and deduplicated.
	MissingRanks []int
	// SimReadSeconds is the simulated NFS busy time of all chunk, parity
	// and manifest fetches, including re-reads and backoff.
	SimReadSeconds float64
}

// normalize makes the report's lists deterministic: sorted by (rank,
// field) and deduplicated, whatever order the restore workers produced
// them in.
func (r *RestoreReport) normalize() {
	sortChunkErrors(r.Failed)
	r.Failed = dedupChunkErrors(r.Failed)
	sortChunkErrors(r.ParityFailed)
	r.ParityFailed = dedupChunkErrors(r.ParityFailed)
	r.MissingRanks = sortedDedupInts(r.MissingRanks)
	r.ReconstructedRanks = sortedDedupInts(r.ReconstructedRanks)
}

func sortChunkErrors(errs []ChunkError) {
	sort.Slice(errs, func(a, b int) bool {
		if errs[a].Rank != errs[b].Rank {
			return errs[a].Rank < errs[b].Rank
		}
		return errs[a].Field < errs[b].Field
	})
}

// dedupChunkErrors collapses same-(rank,field) entries of a sorted list,
// keeping the first.
func dedupChunkErrors(errs []ChunkError) []ChunkError {
	out := errs[:0]
	for i, e := range errs {
		if i > 0 && e.Rank == errs[i-1].Rank && e.Field == errs[i-1].Field {
			continue
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func sortedDedupInts(xs []int) []int {
	if len(xs) == 0 {
		return nil
	}
	sort.Ints(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// RestoredField is one field with per-rank arrays; a rank that could not be
// recovered has a nil Data entry.
type RestoredField struct {
	Name       string
	Dims       []int
	ErrorBound float64
	Data       [][]float32
}

// Restored is the output of Restore.
type Restored struct {
	Manifest *Manifest
	Fields   []RestoredField
	Report   RestoreReport
	// Base is the restored base set when this set is a delta; nil otherwise.
	Base *Restored
}

// Field returns the restored field with the given name, or nil.
func (r *Restored) Field(name string) *RestoredField {
	for i := range r.Fields {
		if r.Fields[i].Name == name {
			return &r.Fields[i]
		}
	}
	return nil
}

// outcome is what the fetch/verify/decode pass — and reconstruction after
// it — left of one stored piece.
type outcome struct {
	data          []float32
	raw           []byte // verified compressed bytes; kept only on parity sets
	err           error
	reread        bool
	reconstructed bool
	retries       int64
	simSec        float64
}

// Restore reads a checkpoint set back in one pass over one format: decode
// the manifest (and, for a delta set, restore its base chain); fetch every
// stored piece across Workers parallel readers, verifying its CRC32C digest
// before decompression and re-reading only the pieces whose digests fail —
// transient corruption costs one extra fetch of that piece, nothing else;
// rebuild pieces that exhausted their re-reads from the parity layer; then
// assemble each (rank, field) payload and report. Unrecoverable payloads
// fail the restore unless AllowPartial is set, in which case the affected
// ranks return nil Data and the report lists every failure and fully
// missing rank explicitly.
func Restore(med Medium, opts RestoreOptions) (*Restored, error) {
	opts = opts.normalized()
	span := obs.Start("ckpt.restore")
	defer span.End()

	// The footer/manifest fetch rides the same faulty medium as chunks, so
	// it gets the same retry budget: transient read errors and corrupted
	// first reads (digest or structure check fails) are re-read.
	var m *Manifest
	var err error
	var manifestRetries int64
	for attempt := 1; ; attempt++ {
		m, err = ReadManifest(med)
		if err == nil {
			break
		}
		if attempt >= opts.Retry.MaxAttempts ||
			!(errors.Is(err, ErrTransient) || errors.Is(err, ErrCorrupt)) {
			return nil, err
		}
		manifestRetries++
	}
	nFields := len(m.Fields)
	out := &Restored{Manifest: m, Fields: make([]RestoredField, nFields)}
	rep := &out.Report
	// The manifest fetch itself rides the simulated read path.
	rep.Retries = manifestRetries
	rep.SimReadSeconds = float64(1+manifestRetries) * opts.Mount.Read(m.TailBytes()).NetworkSeconds
	if m.IsDelta() {
		if out.Base, err = resolveBase(m, opts.Bases, opts); err != nil {
			return nil, err
		}
		rep.Retries += out.Base.Report.Retries
		rep.SimReadSeconds += out.Base.Report.SimReadSeconds
	}

	// On parity sets every verified piece keeps its compressed bytes so the
	// reconstruction pass can use it as a stripe source without re-reading.
	pieces := m.pieces()
	keepRaw := m.ParityRanks > 0
	outcomes := make([]outcome, len(pieces))
	lanes := laneUnpackers(opts.Workers)
	par.RunWorker(len(pieces), opts.Workers, func(w, i int) {
		o := readVerified(med, &pieces[i].ChunkInfo, opts)
		if o.err == nil {
			o.data, o.err = decodePiece(lanes[w], &pieces[i], o.raw)
		}
		if !keepRaw || o.err != nil {
			o.raw = nil
		}
		outcomes[i] = o
	})
	for i := range outcomes {
		o := &outcomes[i]
		rep.SimReadSeconds += o.simSec
		rep.Retries += o.retries
		if o.reread {
			rep.ChunksReread++
			obs.Add("lcpio_ckpt_chunks_reread_total", 1)
		}
	}
	if keepRaw {
		reconstruct(med, m, pieces, outcomes, opts, rep)
	}
	for i := range outcomes {
		if outcomes[i].reconstructed {
			rep.ChunksReconstructed++
			rep.ReconstructedRanks = append(rep.ReconstructedRanks, pieces[i].Rank)
			obs.Add("lcpio_ckpt_chunks_reconstructed_total", 1)
		}
	}

	// Assemble each (rank, field) payload: a full set's chunk is the payload;
	// a delta set's is tiled from its blobs and digest-checked base content.
	n := m.NumChunks()
	data := make([][]float32, n)
	errs := make([]error, n)
	hashers := make([]dedup.Float32Hasher, opts.Workers)
	par.RunWorker(n, opts.Workers, func(w, s int) {
		if m.IsDelta() {
			data[s], errs[s] = assembleStream(m, s, outcomes, out.Base, &hashers[w])
		} else {
			data[s], errs[s] = outcomes[s].data, outcomes[s].err
		}
	})

	for fi, f := range m.Fields {
		out.Fields[fi] = RestoredField{
			Name:       f.Name,
			Dims:       append([]int(nil), f.Dims...),
			ErrorBound: f.ErrorBound,
			Data:       make([][]float32, m.Ranks),
		}
	}
	rankOK := make([]bool, m.Ranks)
	for s := range data {
		rank, fi := s/nFields, s%nFields
		if errs[s] != nil {
			rep.Failed = append(rep.Failed, ChunkError{Rank: rank, Field: fi, Err: errs[s]})
			continue
		}
		rep.ChunksOK++
		rankOK[rank] = true
		out.Fields[fi].Data[rank] = data[s]
	}
	for r, ok := range rankOK {
		if !ok {
			rep.MissingRanks = append(rep.MissingRanks, r)
		}
	}
	rep.normalize()
	if len(rep.Failed) > 0 && !opts.AllowPartial {
		first := rep.Failed[0]
		return nil, fmt.Errorf("ckpt: %d of %d chunks unrecoverable (first: rank %d, field %d: %w)",
			len(rep.Failed), n, first.Rank, first.Field, first.Err)
	}
	return out, nil
}

// reconstruct rebuilds pieces whose re-reads were exhausted from their
// field stripe's Reed–Solomon parity shards. The stripe member of (rank,
// field) is the concatenation of the pieces that stream owns — its one chunk
// on a full set, its blobs on a delta set — zero-padded to the stripe
// length exactly as the writer folded it. Per field: when the ranks with a
// failed piece number within the erasure budget (ParityRanks), the intact
// regions plus as many parity shards as needed are solved for the missing
// ones. Each rebuilt piece must still match its manifest digest before it is
// decoded, so a reconstruction can never silently substitute wrong bytes.
// Failures here leave the piece's original error in place and the restore
// degrades to the usual partial report.
func reconstruct(med Medium, m *Manifest, pieces []piece, outcomes []outcome, opts RestoreOptions, rep *RestoreReport) {
	coder, err := ec.New(m.Ranks, m.ParityRanks)
	if err != nil {
		return // geometry outside coder limits is rejected at manifest parse
	}
	span := obs.Start("ckpt.reconstruct")
	defer span.End()
	unpacker := container.NewUnpacker(container.Options{Parallelism: 1})
	nFields := len(m.Fields)
	owned := make([][]int, m.NumChunks())
	for i := range pieces {
		s := pieces[i].Rank*nFields + pieces[i].Field
		owned[s] = append(owned[s], i)
	}
	for fi := 0; fi < nFields; fi++ {
		failed := make([]bool, m.Ranks) // ranks with at least one failed owned piece
		nFailed := 0
		for r := range failed {
			for _, pi := range owned[r*nFields+fi] {
				if outcomes[pi].err != nil {
					failed[r] = true
					nFailed++
					break
				}
			}
		}
		if nFailed == 0 || nFailed > m.ParityRanks {
			continue // nothing lost, or beyond the erasure budget
		}
		stripeLen := int(m.ParityChunk(fi, 0).Size)
		shards := make([][]byte, m.Ranks+m.ParityRanks)
		avail := 0
		for r := range failed {
			if failed[r] {
				continue
			}
			region := make([]byte, stripeLen)
			off := 0
			for _, pi := range owned[r*nFields+fi] {
				off += copy(region[off:], outcomes[pi].raw)
			}
			shards[r] = region
			avail++
		}
		// Fetch just enough parity shards to reach k sources; a parity shard
		// that is itself unrecoverable consumes the erasure budget.
		for j := 0; j < m.ParityRanks && avail < m.Ranks; j++ {
			po := readVerified(med, m.ParityChunk(fi, j), opts)
			rep.SimReadSeconds += po.simSec
			rep.Retries += po.retries
			rep.ParityChunksRead++
			obs.Add("lcpio_ckpt_parity_chunks_read_total", 1)
			if po.err != nil {
				rep.ParityFailed = append(rep.ParityFailed,
					ChunkError{Rank: m.Ranks + j, Field: fi, Err: po.err})
				continue
			}
			shards[m.Ranks+j] = po.raw
			avail++
		}
		if avail < m.Ranks {
			continue // too few sources: the partial report stands
		}
		if err := coder.Reconstruct(shards, opts.Workers); err != nil {
			continue
		}
		for r := range failed {
			if !failed[r] {
				continue
			}
			off := 0
			for _, pi := range owned[r*nFields+fi] {
				p, o := &pieces[pi], &outcomes[pi]
				blob := shards[r][off : off+int(p.Size)]
				off += int(p.Size)
				if o.err == nil {
					continue
				}
				if Digest(blob) != p.CRC {
					o.err = fmt.Errorf("%w: reconstructed chunk digest mismatch", ErrCorrupt)
					continue
				}
				o.data, o.err = decodePiece(unpacker, p, blob)
				o.reconstructed = o.err == nil
			}
		}
	}
}

// fetch reads one stored extent into buf and checks its digest.
func fetch(med Medium, c *ChunkInfo, buf []byte) error {
	if _, err := med.ReadAt(buf, c.Offset); err != nil {
		return err
	}
	if Digest(buf) != c.CRC {
		return fmt.Errorf("%w: chunk digest mismatch", ErrCorrupt)
	}
	return nil
}

// readVerified fetches one extent with its digest verified, re-reading on
// transient read errors and digest mismatches with capped backoff. On
// success o.raw holds the verified bytes.
func readVerified(med Medium, c *ChunkInfo, opts RestoreOptions) outcome {
	var o outcome
	buf := make([]byte, c.Size)
	var lastErr error
	for attempt := 1; attempt <= opts.Retry.MaxAttempts; attempt++ {
		if attempt > 1 {
			o.retries++
			o.reread = true
			o.simSec += opts.Retry.backoff(attempt - 1)
		}
		o.simSec += opts.Mount.Read(c.Size).NetworkSeconds
		if lastErr = fetch(med, c, buf); lastErr == nil {
			o.raw = buf
			return o
		}
		if !errors.Is(lastErr, ErrTransient) && !errors.Is(lastErr, ErrCorrupt) {
			o.err = lastErr
			return o
		}
	}
	o.err = fmt.Errorf("giving up after %d attempts: %w", opts.Retry.MaxAttempts, lastErr)
	return o
}

// laneUnpackers returns one single-threaded unpacker per decode lane: the
// lanes are the fan-out, and each keeps its codec handles from piece to
// piece.
func laneUnpackers(workers int) []*container.Unpacker {
	lanes := make([]*container.Unpacker, workers)
	for w := range lanes {
		lanes[w] = container.NewUnpacker(container.Options{Parallelism: 1})
	}
	return lanes
}

// decodePiece decompresses a piece's verified bytes on its lane's unpacker
// and checks the shape against the manifest. A payload that passes its
// digest but fails here will not change on re-read.
func decodePiece(u *container.Unpacker, p *piece, blob []byte) ([]float32, error) {
	data, dims, err := u.Unpack(blob)
	if err != nil {
		return nil, err
	}
	if !slices.Equal(dims, p.dims) {
		return nil, fmt.Errorf("%w: chunk shape %v disagrees with manifest %v", ErrCorrupt, dims, p.dims)
	}
	return data, nil
}

// checkPiece is decodePiece for a caller that wants the verdict and not the
// values: the shape the payload's header states is held to the manifest, then
// every container chunk is decoded into the lane unpacker's one slab.
func checkPiece(u *container.Unpacker, p *piece, blob []byte) error {
	info, err := container.Stat(blob)
	if err != nil {
		return err
	}
	if !slices.Equal(info.Dims, p.dims) {
		return fmt.Errorf("%w: chunk shape %v disagrees with manifest %v", ErrCorrupt, info.Dims, p.dims)
	}
	return u.Check(blob, FieldInfo{Dims: p.dims}.Elems())
}

// VerifyReport summarizes a Verify pass.
type VerifyReport struct {
	Chunks   int
	ChunksOK int
	Failed   []ChunkError
	// ParityChunks/ParityOK/ParityFailed cover the Reed–Solomon parity
	// shards (all zero/nil on sets without parity). Parity shards are
	// digest-checked only; they hold raw stripe bytes, not payloads, so
	// deep mode does not try to decompress them.
	ParityChunks int
	ParityOK     int
	ParityFailed []ChunkError
	// Reconstructable is true when every failed data chunk could still be
	// rebuilt from the set's surviving parity: per field stripe, failed
	// data chunks + failed parity shards <= ParityRanks. A fully clean set
	// is trivially reconstructable. On delta sets the unit is the owning
	// rank's local region.
	Reconstructable bool
	// RefChunks/RefsOK cover a delta set's base references; they are only
	// checked when the base chain is provided (VerifyOptions.Bases).
	RefChunks int
	RefsOK    int
	// BaseErr is non-nil when a delta set's base chain could not be
	// resolved — missing, pin mismatch, or corrupt (an ErrBase kind) — in
	// which case references went unchecked. nil on full sets.
	BaseErr error
}

// VerifyOptions tunes VerifySet.
type VerifyOptions struct {
	// Deep decompresses every stored payload besides digest-checking it.
	Deep bool
	// Workers fans the chunk scans (0 = GOMAXPROCS).
	Workers int
	// Bases is the base chain of a delta set, immediate base first. When
	// provided, every base reference is resolved and digest-checked; when
	// absent on a delta set, Report.BaseErr reports the unchecked chain.
	Bases []Medium
}

// VerifySet checks a checkpoint set without materializing it: manifest
// digest and structure always, then the CRC32C of every stored piece and
// parity shard; with Deep it also decodes each piece, a container chunk at a
// time into its lane's slab, to prove the payloads decode. The report says
// whether any damage found is still within the erasure budget, and — when a
// delta set's base chain is provided — whether every base reference still
// matches the restored base.
func VerifySet(med Medium, opts VerifyOptions) (*VerifyReport, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m, err := ReadManifest(med)
	if err != nil {
		return nil, err
	}
	pieces := m.pieces()
	nData := len(pieces)
	rep := &VerifyReport{Chunks: nData, ParityChunks: len(m.ParityChunks)}
	errs := make([]error, nData+len(m.ParityChunks))
	lanes := laneUnpackers(workers)
	par.RunWorker(len(errs), workers, func(w, i int) {
		if i >= nData {
			c := &m.ParityChunks[i-nData]
			errs[i] = fetch(med, c, make([]byte, c.Size))
			return
		}
		buf := make([]byte, pieces[i].Size)
		if errs[i] = fetch(med, &pieces[i].ChunkInfo, buf); errs[i] == nil && opts.Deep {
			errs[i] = checkPiece(lanes[w], &pieces[i], buf)
		}
	})
	// lost[field] counts failed stripe members — ranks with a failed piece,
	// and parity shards: both consume the erasure budget.
	nFields := len(m.Fields)
	lost := make([]int, nFields)
	lostRegion := make([]bool, m.NumChunks())
	for i, err := range errs[:nData] {
		p := &pieces[i]
		if err == nil {
			rep.ChunksOK++
			continue
		}
		rep.Failed = append(rep.Failed, ChunkError{Rank: p.Rank, Field: p.Field, Err: err})
		if s := p.Rank*nFields + p.Field; !lostRegion[s] {
			lostRegion[s] = true
			lost[p.Field]++
		}
	}
	for i, err := range errs[nData:] {
		c := &m.ParityChunks[i]
		if err == nil {
			rep.ParityOK++
			continue
		}
		rep.ParityFailed = append(rep.ParityFailed, ChunkError{Rank: c.Rank, Field: c.Field, Err: err})
		lost[c.Field]++
	}
	rep.Reconstructable = true
	for _, l := range lost {
		if l > m.ParityRanks {
			rep.Reconstructable = false
		}
	}
	if m.IsDelta() {
		verifyRefs(m, opts.Bases, workers, rep)
	}
	return rep, nil
}
