package ckpt

import (
	"errors"
	"fmt"
	"slices"

	"lcpio/internal/dedup"
	"lcpio/internal/obs"
	"lcpio/internal/stream"
)

// Delta checkpoints.
//
// A delta set stores only content the base chain does not already hold.
// Each (rank, field) payload is content-defined-chunked (dedup.SplitFloat32)
// in its ORIGINAL float32 domain; every chunk is then classified, cheapest
// test first:
//
//  1. unchanged-within-bound: every value of the chunk is within the
//     field's error bound of the base's restored value at the same
//     position — exactly the lossy codec's contract, so serving the base's
//     bytes for this chunk is as correct as recompressing it. The entry
//     references the same position and carries the digest of the base's
//     restored bytes there, which restore checks byte-exactly. On lossy data
//     this is where nearly every unchanged chunk lands (original values are
//     not the restored ones), so it runs first and a chunk it accepts is
//     never digested on its own;
//  2. exact: the chunk failed the bound at its own position (it moved, or it
//     holds a NaN, which no bound admits) but its digest is present in the
//     base's index of RESTORED content — the chunk becomes a by-reference
//     entry to that location;
//  3. changed: the chunk is compressed on its own (a 1-D container blob)
//     and stored, deduplicated against identical chunks already committed
//     in THIS set (intra-set sharing via refcounts).
//
// A chunk both tests would accept restores within bound either way; taking
// the same-position reference keeps neighbours contiguous, so they merge into
// one entry.
//
// Classification happens in the workers; which chunks become new blobs is
// decided in the in-order drain loop, so blob IDs, offsets, refcounts and
// the entire file are byte-identical at any worker count.
//
// Matching restored-domain content (not as-stored compressed bytes) is the
// load-bearing choice: predictor-based codecs like SZ cascade any edit
// into the compressed representation of later, unchanged values, so
// as-stored bytes are unstable under churn — restored values are the
// stable contract surface the codec actually guarantees.

// Base is a restored checkpoint set prepared for delta writes against it:
// the restored content of every (rank, field), a digest index over its
// content-defined chunks, and the manifest pin a delta set will record.
type Base struct {
	// Manifest is the base set's manifest; Pin authenticates it (CRC32C of
	// its canonical encoding) so restore can refuse a swapped base.
	Manifest *Manifest
	Pin      uint32

	params dedup.Params
	// fields is the restored content; base references address the
	// little-endian bytes of a (rank, field) array.
	fields []RestoredField
	// index maps digests of the base's content-defined chunks (over
	// restored bytes) to their locations.
	index *dedup.Index
}

// stream returns the restored values of rank-major (rank, field) stream s.
func (b *Base) stream(s int) []float32 {
	return b.fields[s%len(b.fields)].Data[s/len(b.fields)]
}

// DedupParams returns the chunking geometry the base was indexed with —
// the geometry Write will use for deltas against it.
func (b *Base) DedupParams() dedup.Params { return b.params }

// OpenBase restores the set on med (resolving its own base chain through
// the chain media, immediate base first) and indexes its restored content
// for delta writes. The dedup params become the delta set's chunking
// geometry; zero values take the package defaults, alignment is forced to
// whole float32s.
func OpenBase(med Medium, chain []Medium, p dedup.Params, opts RestoreOptions) (*Base, error) {
	p.Align = dedupAlign
	p = p.Normalized()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts.AllowPartial = false
	opts.Bases = chain
	res, err := Restore(med, opts)
	if err != nil {
		return nil, fmt.Errorf("%w: opening base: %v", ErrBase, err)
	}
	if res.Manifest.ChainDepth+1 > maxChainDepth {
		return nil, fmt.Errorf("ckpt: base chain depth %d would exceed cap %d",
			res.Manifest.ChainDepth+1, maxChainDepth)
	}
	b := &Base{
		Manifest: res.Manifest,
		Pin:      Digest(res.Manifest.encode()),
		params:   p,
		fields:   res.Fields,
		index:    dedup.NewIndex(),
	}
	var h dedup.Float32Hasher
	for fi := range res.Fields {
		for r, data := range res.Fields[fi].Data {
			prev := 0
			for _, cut := range dedup.SplitFloat32(data, p) {
				b.index.Add(h.Sum(data[prev/4:cut/4]), dedup.Location{
					Rank: r, Field: fi, RawOff: int64(prev), RawLen: int64(cut - prev),
				})
				prev = cut
			}
		}
	}
	return b, nil
}

// withinBound reports whether every value of cur is within bound of the
// base's restored value at the same position. NaNs never match.
func withinBound(cur, base []float32, bound float64) bool {
	for i, v := range cur {
		d := float64(v) - float64(base[i])
		if !(d <= bound && d >= -bound) {
			return false
		}
	}
	return true
}

// deltaEntry is one manifest-bound run travelling from a worker to the
// drain loop: either a resolved base reference or a compressed local
// candidate whose fate (new blob vs intra-set share) the drain decides.
// A run covers one or more consecutive content-defined chunks of equal
// classification — merging is a pure encoding win (one container stream,
// one manifest entry) and changes nothing about chunk-level matching.
type deltaEntry struct {
	rawLen int
	chunks int      // content-defined chunks merged into this run
	ref    ChunkRef // Blob == -1: base reference, ready for the manifest
	local  bool
	blob   []byte       // compressed run (local candidates)
	digest dedup.Digest // original-bytes digest (intra-set dedup key)
}

// maxRefRunLen caps merged base-reference runs so RawLen stays well inside
// its uint32 wire field.
const maxRefRunLen = 1 << 30

// lane is what one delta worker keeps from stream to stream: its packer, and
// the hasher it digests float content through.
type lane struct {
	pack   packFunc
	hasher dedup.Float32Hasher
}

// streamDelta is what a lane hands the drain for one stream: the runs, and
// the work it counted getting them — chunks referenced by bound match and by
// digest lookup, and the bytes it put through SHA-256.
type streamDelta struct {
	entries      []deltaEntry
	bound, exact int
	digested     int64
}

// classifyStream chunks one (rank, field) payload, classifies every chunk
// against the base, merges runs, and compresses local runs — all here in
// the worker, so only the dedup decision is left for the drain loop. It reads
// the payload and the base as the float arrays they are: chunker and digests
// take values, and the lane's hasher is the only byte buffer.
func classifyStream(set *Set, base *Base, idx int, l *lane) (streamDelta, error) {
	nFields := len(set.Fields)
	f := &set.Fields[idx%nFields]
	cur, old := f.Data[idx/nFields], base.stream(idx)
	var sd streamDelta
	sum := func(vals []float32) dedup.Digest {
		sd.digested += int64(len(vals)) * 4
		return l.hasher.Sum(vals)
	}

	// Per-chunk classification: local, or a reference into some base
	// stream's restored bytes.
	type chunkClass struct {
		start, end int
		local      bool
		baseStream int
		baseOff    int64
	}
	cuts := dedup.SplitFloat32(cur, base.params)
	classes := make([]chunkClass, 0, len(cuts))
	prev := 0
	for _, cut := range cuts {
		c := chunkClass{start: prev, end: cut, baseStream: idx, baseOff: int64(prev)}
		if withinBound(cur[prev/4:cut/4], old[prev/4:cut/4], f.ErrorBound) {
			sd.bound++
		} else if loc, ok := base.index.Lookup(sum(cur[prev/4 : cut/4])); ok && loc.RawLen == int64(cut-prev) {
			c.baseStream, c.baseOff = loc.Rank*nFields+loc.Field, loc.RawOff
			sd.exact++
		} else {
			c.local = true
		}
		classes = append(classes, c)
		prev = cut
	}

	// Merge pass: consecutive local chunks become one compressed run;
	// consecutive references contiguous in the same base stream become one
	// spanning reference (digest over the whole base range).
	for i := 0; i < len(classes); {
		c := classes[i]
		j := i + 1
		if c.local {
			end := c.end
			for j < len(classes) && classes[j].local && classes[j].end-c.start <= dedup.MaxChunkSize {
				end = classes[j].end
				j++
			}
			run := cur[c.start/4 : end/4]
			blob, err := l.pack(run, []int{len(run)}, f.ErrorBound)
			if err != nil {
				return streamDelta{}, err
			}
			sd.entries = append(sd.entries, deltaEntry{
				rawLen: end - c.start, chunks: j - i, local: true, blob: blob, digest: sum(run),
			})
		} else {
			endOff := c.baseOff + int64(c.end-c.start)
			for j < len(classes) && !classes[j].local && classes[j].baseStream == c.baseStream &&
				classes[j].baseOff == endOff && endOff-c.baseOff < maxRefRunLen {
				endOff += int64(classes[j].end - classes[j].start)
				j++
			}
			n := int(endOff - c.baseOff)
			sd.entries = append(sd.entries, deltaEntry{rawLen: n, chunks: j - i, ref: ChunkRef{
				RawLen: n, Blob: -1, BaseRank: c.baseStream / nFields, BaseField: c.baseStream % nFields,
				BaseRawOff: c.baseOff, Digest: sum(base.stream(c.baseStream)[c.baseOff/4 : endOff/4]),
			}})
		}
		i = j
	}
	return sd, nil
}

// deltaWriter is Write's delta kind: lanes chunk/hash/classify/compress one
// (rank, field) payload each, and the in-order drain commits only content
// the base chain lacks. The engine carries blobs, not entry lists, so a lane
// parks its stream's entries in a slot indexed by stream and the drain picks
// them up when the engine hands it that index (the result channel orders
// the two accesses).
func deltaWriter(set *Set, base *Base, m *Manifest, res *WriteResult, chunkElems int) (streamWriter, error) {
	if err := sameGeometry(set.Ranks, setFieldInfos(*set), base.Manifest); err != nil {
		return streamWriter{}, fmt.Errorf("ckpt: delta against base %q: %w", base.Manifest.SetName, err)
	}
	if base.Manifest.ChainDepth+1 > maxChainDepth {
		return streamWriter{}, fmt.Errorf("ckpt: base chain depth %d exceeds cap %d",
			base.Manifest.ChainDepth+1, maxChainDepth)
	}
	n := set.Ranks * len(set.Fields)
	m.BaseName, m.BasePin, m.ChainDepth = base.Manifest.SetName, base.Pin, base.Manifest.ChainDepth+1
	m.DedupMin, m.DedupAvg, m.DedupMax = base.params.MinSize, base.params.AvgSize, base.params.MaxSize
	m.Entries = make([][]ChunkRef, n)
	res.BaseName = m.BaseName
	produced := make([]streamDelta, n)
	// Local candidates are dedup'd against blobs already committed in this
	// set; drain order = logical order, so the intra-set index — and
	// therefore blob IDs, offsets and refcounts — is worker-count independent.
	intra := make(map[dedup.Digest]int)
	return streamWriter{
		span: "ckpt.write.delta", pipeline: "ckpt.delta_write", stage: "classify_compress",
		lane: func() stream.ProduceFunc {
			l := &lane{pack: lanePack(set.Codec, chunkElems)}
			return func(idx int) (_ []byte, err error) {
				produced[idx], err = classifyStream(set, base, idx, l)
				return nil, err
			}
		},
		commit: func(w *setWriter, d stream.Item) ([]byte, error) {
			sd := produced[d.Idx]
			produced[d.Idx] = streamDelta{}
			refs := make([]ChunkRef, 0, len(sd.entries))
			local, shared := res.ChunksLocal, res.ChunksShared
			var region []byte // this stream's newly committed blob bytes, for parity
			for _, e := range sd.entries {
				if !e.local {
					refs = append(refs, e.ref)
					res.ChunksRef += e.chunks
					res.RefRawBytes += int64(e.rawLen)
					continue
				}
				if id, ok := intra[e.digest]; ok && m.Blobs[id].RawLen == e.rawLen {
					m.Blobs[id].Refs++
					refs = append(refs, ChunkRef{RawLen: e.rawLen, Blob: id})
					res.ChunksShared += e.chunks
					res.RefRawBytes += int64(e.rawLen)
					continue
				}
				id := len(m.Blobs)
				m.Blobs = append(m.Blobs, BlobInfo{
					Offset: w.offset, Size: int64(len(e.blob)), CRC: Digest(e.blob),
					RawLen: e.rawLen, Digest: e.digest, Refs: 1, owner: d.Idx,
				})
				if err := w.putData(e.blob, d.AvailAt); err != nil {
					return nil, fmt.Errorf("ckpt: blob %d: %w", id, err)
				}
				intra[e.digest] = id
				refs = append(refs, ChunkRef{RawLen: e.rawLen, Blob: id})
				region = append(region, e.blob...)
				res.ChunksLocal += e.chunks
				res.LocalRawBytes += int64(e.rawLen)
			}
			m.Entries[d.Idx] = refs
			obs.Add("lcpio_ckpt_delta_chunks_bound_total", int64(sd.bound))
			obs.Add("lcpio_ckpt_delta_chunks_exact_total", int64(sd.exact))
			obs.Add("lcpio_ckpt_delta_chunks_local_total", int64(res.ChunksLocal-local))
			obs.Add("lcpio_ckpt_delta_chunks_shared_total", int64(res.ChunksShared-shared))
			obs.Add("lcpio_ckpt_delta_digest_bytes_total", sd.digested)
			return region, nil
		},
	}, nil
}

// setFieldInfos adapts a Set's fields for geometry comparison.
func setFieldInfos(set Set) []FieldInfo {
	fs := make([]FieldInfo, len(set.Fields))
	for i, f := range set.Fields {
		fs[i] = FieldInfo{Name: f.Name, Dims: f.Dims}
	}
	return fs
}

// sameGeometry checks that (ranks, fields) matches the base manifest's
// geometry: delta sets reference base content positionally, so rank count,
// field order/names and shapes must agree (error bounds may differ).
func sameGeometry(ranks int, fields []FieldInfo, bm *Manifest) error {
	if ranks != bm.Ranks {
		return fmt.Errorf("rank count %d != base %d", ranks, bm.Ranks)
	}
	if len(fields) != len(bm.Fields) {
		return fmt.Errorf("field count %d != base %d", len(fields), len(bm.Fields))
	}
	for i, f := range fields {
		bf := &bm.Fields[i]
		if f.Name != bf.Name {
			return fmt.Errorf("field %d is %q, base has %q", i, f.Name, bf.Name)
		}
		if !slices.Equal(f.Dims, bf.Dims) {
			return fmt.Errorf("field %q dims %v != base %v", f.Name, f.Dims, bf.Dims)
		}
	}
	return nil
}

// resolveBase restores and authenticates the immediate base of a delta
// set: the chain must be provided, the restored base must match the
// recorded name + pin, sit one step shallower in the chain, and share the
// set's geometry. Every failure is an ErrBase kind — the delta set itself
// may be intact.
func resolveBase(m *Manifest, bases []Medium, opts RestoreOptions) (*Restored, error) {
	if len(bases) == 0 {
		return nil, fmt.Errorf("%w: delta set %q requires base %q", ErrBase, m.SetName, m.BaseName)
	}
	baseOpts := RestoreOptions{Workers: opts.Workers, Retry: opts.Retry, Mount: opts.Mount, Bases: bases[1:]}
	baseRes, err := Restore(bases[0], baseOpts)
	if err != nil {
		if errors.Is(err, ErrBase) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: restoring base %q: %v", ErrBase, m.BaseName, err)
	}
	bm := baseRes.Manifest
	if bm.SetName != m.BaseName || Digest(bm.encode()) != m.BasePin {
		return nil, fmt.Errorf("%w: base %q fails pin check (wrong or modified base)", ErrBase, m.BaseName)
	}
	if bm.ChainDepth != m.ChainDepth-1 {
		return nil, fmt.Errorf("%w: base %q chain depth %d, expected %d",
			ErrBase, m.BaseName, bm.ChainDepth, m.ChainDepth-1)
	}
	if err := sameGeometry(m.Ranks, m.Fields, bm); err != nil {
		return nil, fmt.Errorf("%w: base %q geometry: %v", ErrBase, m.BaseName, err)
	}
	return baseRes, nil
}

// verifyRefs checks a delta set's base references for VerifySet: when the
// base chain is provided, every reference's content digest is compared with
// the actually restored base; without the chain, references go unchecked and
// BaseErr says so.
func verifyRefs(m *Manifest, bases []Medium, workers int, rep *VerifyReport) {
	for _, stream := range m.Entries {
		for _, e := range stream {
			if !e.Local() {
				rep.RefChunks++
			}
		}
	}
	if rep.RefChunks == 0 {
		return
	}
	if len(bases) == 0 {
		rep.BaseErr = fmt.Errorf("%w: base chain for %q not provided; %d references unchecked",
			ErrBase, m.BaseName, rep.RefChunks)
		return
	}
	baseRes, err := resolveBase(m, bases, RestoreOptions{Workers: workers})
	if err != nil {
		rep.BaseErr = err
		return
	}
	nFields := len(m.Fields)
	var h dedup.Float32Hasher
	for s, stream := range m.Entries {
		for i := range stream {
			if stream[i].Local() {
				continue
			}
			if _, err := refContent(&stream[i], baseRes, &h); err != nil {
				rep.Failed = append(rep.Failed, ChunkError{Rank: s / nFields, Field: s % nFields, Err: err})
				rep.Reconstructable = false // base damage is beyond this set's parity
				continue
			}
			rep.RefsOK++
		}
	}
}

// refContent returns the restored base values a reference names, after
// checking their digest — a mismatch means the base's content is not what the
// writer saw. The digest is of their little-endian bytes, taken through the
// caller's hasher.
func refContent(e *ChunkRef, baseRes *Restored, h *dedup.Float32Hasher) ([]float32, error) {
	vals := baseRes.Fields[e.BaseField].Data[e.BaseRank][e.BaseRawOff/4 : (e.BaseRawOff+int64(e.RawLen))/4]
	if h.Sum(vals) != e.Digest {
		return nil, fmt.Errorf("%w: base content digest mismatch at (rank %d, field %d, off %d)",
			ErrBase, e.BaseRank, e.BaseField, e.BaseRawOff)
	}
	return vals, nil
}

// assembleStream rebuilds one (rank, field) payload of a delta set from its
// decoded blobs and digest-checked base references.
func assembleStream(m *Manifest, s int, outcomes []outcome, baseRes *Restored, h *dedup.Float32Hasher) ([]float32, error) {
	out := make([]float32, m.Fields[s%len(m.Fields)].Elems())
	pos := 0
	for i := range m.Entries[s] {
		e := &m.Entries[s][i]
		if e.Local() {
			o := &outcomes[e.Blob]
			if o.err != nil {
				return nil, o.err
			}
			copy(out[pos/4:], o.data)
		} else {
			vals, err := refContent(e, baseRes, h)
			if err != nil {
				return nil, err
			}
			copy(out[pos/4:], vals)
		}
		pos += e.RawLen
	}
	return out, nil
}
