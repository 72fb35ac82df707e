package ckpt

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"lcpio/internal/container"
	"lcpio/internal/ec"
	"lcpio/internal/nfs"
	"lcpio/internal/obs"
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
	// Bases is the base chain for delta sets (format v3), immediate base
	// first: Bases[0] holds the set this one dedups against, Bases[1:] is
	// that base's own chain. Ignored for full sets. A delta set restored
	// without its chain fails with ErrBase.
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
	// Reed–Solomon parity shards (format v2 sets only).
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
	// Base is the restored base set when this set is a delta (format v3);
	// nil otherwise.
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

type chunkOutcome struct {
	data          []float32
	raw           []byte // verified compressed bytes; kept only on parity sets
	err           error
	reread        bool
	reconstructed bool
	retries       int64
	simSec        float64
}

// Restore reads a checkpoint set back: it decodes the manifest, fans chunks
// across Workers parallel readers, verifies every chunk's CRC32C digest
// before decompression, and re-reads only the chunks whose digests fail —
// transient corruption costs one extra fetch of that chunk, nothing else.
// Unrecoverable chunks fail the restore unless AllowPartial is set, in
// which case the affected ranks return nil Data and the report lists every
// failure and fully missing rank explicitly.
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
	if m.IsDelta() {
		return restoreDelta(med, m, manifestRetries, opts)
	}
	n := m.NumChunks()
	nFields := len(m.Fields)
	outcomes := make([]chunkOutcome, n)

	// On parity sets every verified chunk keeps its compressed bytes so a
	// reconstruction pass can use it as a stripe source without re-reading.
	keepRaw := m.ParityRanks > 0
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		defer close(next)
		for i := 0; i < n; i++ {
			next <- i
		}
	}()
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				outcomes[i] = restoreChunk(med, m, i, opts, keepRaw)
			}
		}()
	}
	wg.Wait()

	out := &Restored{Manifest: m, Fields: make([]RestoredField, nFields)}
	rep := &out.Report
	// The manifest fetch itself rides the simulated read path.
	rep.Retries = manifestRetries
	rep.SimReadSeconds = float64(1+manifestRetries) *
		opts.Mount.Read(int64(len(m.encode()))+footerLen).NetworkSeconds

	// Chunks that exhausted their re-reads fall back to the parity layer:
	// any <= ParityRanks lost or corrupt data chunks per field stripe are
	// rebuilt byte-identically before decode.
	if keepRaw {
		reconstructMissing(med, m, outcomes, opts, rep)
	}
	for fi, f := range m.Fields {
		out.Fields[fi] = RestoredField{
			Name:       f.Name,
			Dims:       append([]int(nil), f.Dims...),
			ErrorBound: f.ErrorBound,
			Data:       make([][]float32, m.Ranks),
		}
	}
	rankOK := make([]bool, m.Ranks)
	for i := range outcomes {
		o := &outcomes[i]
		rank, field := i/nFields, i%nFields
		rep.SimReadSeconds += o.simSec
		rep.Retries += o.retries
		if o.reread {
			rep.ChunksReread++
			obs.Add("lcpio_ckpt_chunks_reread_total", 1)
		}
		if o.err != nil {
			rep.Failed = append(rep.Failed, ChunkError{Rank: rank, Field: field, Err: o.err})
			continue
		}
		rep.ChunksOK++
		if o.reconstructed {
			rep.ChunksReconstructed++
			rep.ReconstructedRanks = append(rep.ReconstructedRanks, rank)
			obs.Add("lcpio_ckpt_chunks_reconstructed_total", 1)
		}
		rankOK[rank] = true
		out.Fields[field].Data[rank] = o.data
	}
	for r, ok := range rankOK {
		if !ok {
			rep.MissingRanks = append(rep.MissingRanks, r)
		}
	}
	rep.normalize()
	if len(rep.Failed) > 0 && !opts.AllowPartial {
		return nil, fmt.Errorf("ckpt: %d of %d chunks unrecoverable (first: %v)",
			len(rep.Failed), n, rep.Failed[0])
	}
	return out, nil
}

// reconstructMissing rebuilds data chunks whose re-reads were exhausted
// from their field stripe's Reed–Solomon parity shards. Per field: if the
// number of failed data chunks is within the erasure budget (ParityRanks),
// the surviving chunks plus as many parity shards as needed are assembled
// into a stripe — shorter chunks zero-padded to the stripe length, exactly
// as the writer folded them — and the missing shards are recomputed. Each
// rebuilt chunk must still match its manifest digest before it is decoded,
// so a reconstruction can never silently substitute wrong bytes. Failures
// here leave the chunk's original error in place and the restore degrades
// to the usual partial report.
func reconstructMissing(med Medium, m *Manifest, outcomes []chunkOutcome, opts RestoreOptions, rep *RestoreReport) {
	coder, err := ec.New(m.Ranks, m.ParityRanks)
	if err != nil {
		// Geometry outside coder limits is rejected at manifest parse; this
		// is unreachable on a set that decoded, but degrade gracefully.
		return
	}
	span := obs.Start("ckpt.reconstruct")
	defer span.End()
	nFields := len(m.Fields)
	for fi := 0; fi < nFields; fi++ {
		var failed []int
		for r := 0; r < m.Ranks; r++ {
			if outcomes[r*nFields+fi].err != nil {
				failed = append(failed, r)
			}
		}
		if len(failed) == 0 || len(failed) > m.ParityRanks {
			continue // nothing lost, or beyond the erasure budget
		}
		stripeLen := int(m.ParityChunk(fi, 0).Size)
		shards := make([][]byte, m.Ranks+m.ParityRanks)
		avail := 0
		for r := 0; r < m.Ranks; r++ {
			o := &outcomes[r*nFields+fi]
			if o.err != nil {
				continue
			}
			padded := make([]byte, stripeLen)
			copy(padded, o.raw)
			shards[r] = padded
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
		for _, r := range failed {
			o := &outcomes[r*nFields+fi]
			c := m.Chunk(r, fi)
			blob := shards[r][:c.Size]
			if Digest(blob) != c.CRC {
				o.err = fmt.Errorf("%w: reconstructed chunk digest mismatch", ErrCorrupt)
				continue
			}
			o.err = nil
			decodeChunk(o, &m.Fields[fi], blob)
			if o.err == nil {
				o.reconstructed = true
			}
		}
	}
}

// readVerified fetches one chunk's bytes and verifies its digest,
// re-reading on transient read errors and digest mismatches with capped
// backoff. On success o.raw holds the verified bytes.
func readVerified(med Medium, c *ChunkInfo, opts RestoreOptions) chunkOutcome {
	var o chunkOutcome
	buf := make([]byte, c.Size)
	var lastErr error
	for attempt := 1; attempt <= opts.Retry.MaxAttempts; attempt++ {
		if attempt > 1 {
			o.retries++
			o.reread = true
			o.simSec += opts.Retry.backoff(attempt - 1)
		}
		o.simSec += opts.Mount.Read(c.Size).NetworkSeconds
		if _, err := med.ReadAt(buf, c.Offset); err != nil {
			lastErr = err
			if errors.Is(err, ErrTransient) {
				continue
			}
			o.err = err
			return o
		}
		if Digest(buf) != c.CRC {
			lastErr = fmt.Errorf("%w: chunk digest mismatch", ErrCorrupt)
			continue
		}
		o.raw = buf
		return o
	}
	o.err = fmt.Errorf("giving up after %d attempts: %w", opts.Retry.MaxAttempts, lastErr)
	return o
}

// decodeChunk decompresses verified chunk bytes and checks the shape
// against the manifest, updating o in place.
func decodeChunk(o *chunkOutcome, f *FieldInfo, blob []byte) {
	data, dims, err := container.Unpack(blob, container.Options{Parallelism: 1})
	if err != nil {
		// A payload that passes its digest but fails to decode will not
		// change on re-read.
		o.err = err
		return
	}
	if len(data) != f.Elems() || !dimsEqual(dims, f.Dims) {
		o.err = fmt.Errorf("%w: chunk shape %v disagrees with manifest %v", ErrCorrupt, dims, f.Dims)
		return
	}
	o.data = data
}

// restoreChunk fetches, verifies, and decompresses one data chunk. keepRaw
// retains the verified compressed bytes so a later reconstruction pass can
// use the chunk as a stripe source without re-reading it.
func restoreChunk(med Medium, m *Manifest, idx int, opts RestoreOptions, keepRaw bool) chunkOutcome {
	c := &m.Chunks[idx]
	o := readVerified(med, c, opts)
	if o.err != nil {
		return o
	}
	decodeChunk(&o, &m.Fields[c.Field], o.raw)
	if !keepRaw || o.err != nil {
		o.raw = nil
	}
	return o
}

func dimsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// VerifyReport summarizes a Verify pass.
type VerifyReport struct {
	Chunks   int
	ChunksOK int
	Failed   []ChunkError
	// ParityChunks/ParityOK/ParityFailed cover the Reed–Solomon parity
	// shards of format v2 sets (all zero/nil on v1 sets). Parity shards are
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

// Verify checks a checkpoint set without materializing it: manifest digest
// and structure always, then every chunk's CRC32C; with deep set it also
// decompresses each data chunk to prove the payloads decode. On format v2
// sets the parity shards are digest-scanned too and the report says
// whether any damage found is still within the erasure budget. Workers fan
// the chunk scans (0 = GOMAXPROCS). Delta sets (format v3) get their
// stored blobs scanned; pass the base chain via VerifySet to also check
// base references.
func Verify(med Medium, deep bool, workers int) (*VerifyReport, error) {
	return VerifySet(med, VerifyOptions{Deep: deep, Workers: workers})
}

// VerifySet is Verify with options; on delta sets it can additionally
// resolve the base chain and digest-check every base reference.
func VerifySet(med Medium, opts VerifyOptions) (*VerifyReport, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m, err := ReadManifest(med)
	if err != nil {
		return nil, err
	}
	if m.IsDelta() {
		return verifyDelta(med, m, opts, workers)
	}
	nData := m.NumChunks()
	n := nData + m.NumParityChunks()
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		defer close(next)
		for i := 0; i < n; i++ {
			next <- i
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				var c *ChunkInfo
				if i < nData {
					c = &m.Chunks[i]
				} else {
					c = &m.ParityChunks[i-nData]
				}
				buf := make([]byte, c.Size)
				if _, err := med.ReadAt(buf, c.Offset); err != nil {
					errs[i] = err
					continue
				}
				if Digest(buf) != c.CRC {
					errs[i] = fmt.Errorf("%w: chunk digest mismatch", ErrCorrupt)
					continue
				}
				if opts.Deep && i < nData {
					if _, _, err := container.Unpack(buf, container.Options{Parallelism: 1}); err != nil {
						errs[i] = err
					}
				}
			}
		}()
	}
	wg.Wait()
	rep := &VerifyReport{Chunks: nData, ParityChunks: n - nData}
	nFields := len(m.Fields)
	// lost[field] counts failed stripe members (data chunks and parity
	// shards alike — both consume the erasure budget).
	lost := make([]int, nFields)
	for i, err := range errs[:nData] {
		if err == nil {
			rep.ChunksOK++
		} else {
			rep.Failed = append(rep.Failed, ChunkError{Rank: i / nFields, Field: i % nFields, Err: err})
			lost[i%nFields]++
		}
	}
	for i, err := range errs[nData:] {
		c := &m.ParityChunks[i]
		if err == nil {
			rep.ParityOK++
		} else {
			rep.ParityFailed = append(rep.ParityFailed, ChunkError{Rank: c.Rank, Field: c.Field, Err: err})
			lost[c.Field]++
		}
	}
	rep.Reconstructable = true
	for _, l := range lost {
		if l > m.ParityRanks {
			rep.Reconstructable = false
		}
	}
	if len(rep.Failed) > 0 && m.ParityRanks == 0 {
		rep.Reconstructable = false
	}
	return rep, nil
}
