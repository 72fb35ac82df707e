// Package ckpt is the checkpoint/restart store: it packages many fields
// across many simulated ranks into a single versioned checkpoint set — a
// wire-format manifest (fields, shapes, codec, error bounds, per-chunk
// CRC32C digests, per-rank offsets) over internal/container payloads — and
// restores it with digest verification, bounded re-reads of corrupted
// chunks, and explicit partial-restore reporting when a rank is lost.
//
// Set layout on the medium — one format, every feature a manifest field:
//
//	header:  magic, version                                (8 bytes)
//	payload: full set: one container blob per (rank, field) chunk,
//	         rank-major; delta set (ChainDepth > 0): one blob per run of
//	         content the base chain lacks — either way written in logical
//	         order by the pipelined scheduler
//	parity:  (ParityRanks > 0) m Reed–Solomon shards per field stripe,
//	         field-major, each digest-listed in the manifest
//	manifest: encoded Manifest (see encode)
//	footer:  manifest offset, length, CRC32C, magic        (24 bytes)
//
// The writer overlaps parallel compression with draining completed chunks
// to the simulated NFS writer (see write.go); because chunks are committed
// in logical order, offsets — and therefore the manifest and the entire
// file — are byte-identical at any worker count.
package ckpt

import (
	"errors"
	"fmt"
	"hash/crc32"

	"lcpio/internal/dedup"
	"lcpio/internal/ec"
	"lcpio/internal/wire"
)

const (
	magic = 0x4C435054 // "LCPT"
	// version is the one set format; a set stamped with any other value is
	// refused as unsupported rather than parsed.
	version   = 4
	headerLen = 8
	footerLen = 24

	// maxChainDepth bounds how many delta sets may stack on one full set;
	// restore cost and failure surface grow with the chain, so the format
	// refuses to encode deeper lineages.
	maxChainDepth = 8

	// dedupAlign pins chunk boundaries to whole float32 values.
	dedupAlign = 4

	// DigestWireLen is the on-wire content-digest size (see dedup.Sum).
	DigestWireLen = dedup.DigestLen

	// maxParityRanks caps the per-stripe parity count; Reed–Solomon over
	// GF(2^8) additionally needs Ranks+ParityRanks <= ec.MaxShards.
	maxParityRanks = 16

	// Plausibility caps enforced before any count-driven allocation, so a
	// forged manifest cannot demand giant slices (the same discipline as
	// the sz/zfp/container decoders; a field's shape is held to package
	// wire's caps).
	maxRanks    = 1 << 16
	maxFields   = 1 << 12
	maxChunks   = 1 << 22
	maxNameLen  = 256
	maxMetaLen  = 4096
	maxCodecLen = 64
)

// ErrCorrupt is returned for malformed checkpoint sets.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint set")

// ErrBase is returned when a delta set's base chain cannot be resolved:
// a base set is missing, fails its pin check, disagrees on geometry, or is
// itself corrupt. It is deliberately distinct from ErrCorrupt — the delta
// set's own bytes may be perfectly fine; what's wrong is its ancestry.
var ErrBase = errors.New("ckpt: base set missing or corrupt")

// castagnoli is the CRC32C table used for every digest in the format.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Digest returns the CRC32C of b — the per-chunk digest stored in the
// manifest.
func Digest(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// FieldInfo describes one field of the set; every rank holds an array of
// the same shape and bound.
type FieldInfo struct {
	Name string
	// Dims is the per-rank shape, slowest dimension first.
	Dims []int
	// ErrorBound is the absolute error bound the payload was compressed
	// under.
	ErrorBound float64
}

// Elems returns the per-rank element count.
func (f FieldInfo) Elems() int {
	n := 1
	for _, d := range f.Dims {
		n *= d
	}
	return n
}

// ChunkInfo locates and authenticates one chunk: the container payload of
// one (rank, field) pair.
type ChunkInfo struct {
	Rank, Field int
	Offset      int64
	Size        int64
	CRC         uint32
}

// BlobInfo describes one stored chunk of a delta set: the compressed container payload of one content-defined chunk that was not
// found in the base. Blobs are shared — a chunk appearing in several
// (rank, field) payloads is stored once and referenced Refs times.
type BlobInfo struct {
	// Offset/Size locate the compressed bytes; CRC authenticates them.
	Offset int64
	Size   int64
	CRC    uint32
	// RawLen is the uncompressed chunk length in bytes (multiple of 4).
	RawLen int
	// Digest is the truncated SHA-256 of the chunk's ORIGINAL uncompressed
	// bytes — the intra-set dedup key. It is provenance, not a restore
	// check: the lossy payload decodes to within the error bound of these
	// bytes, not to them exactly (CRC covers the stored bytes).
	Digest dedup.Digest
	// Refs counts the chunk-ref entries pointing at this blob.
	Refs int
	// owner is the rank-major (rank*fields+field) stream index of the first
	// entry referencing this blob — the stream whose parity stripe region
	// carries it. Derived during parse/write, not on the wire.
	owner int
}

// ChunkRef is one entry of a delta set's (rank, field) chunk-ref stream.
// Entries tile the field payload in order: each covers RawLen raw bytes,
// either from a local blob (Blob >= 0) or from the base set's restored
// content at (BaseRank, BaseField, BaseRawOff), authenticated by Digest —
// the truncated SHA-256 of those RESTORED base bytes, which restore checks
// byte-exactly after resolving the chain.
type ChunkRef struct {
	RawLen int
	// Blob indexes Manifest.Blobs for a local chunk; -1 for a base ref.
	Blob int
	// Base coordinates and content digest (base refs only).
	BaseRank, BaseField int
	BaseRawOff          int64
	Digest              dedup.Digest
}

// Local reports whether the entry carries its own stored blob.
func (c ChunkRef) Local() bool { return c.Blob >= 0 }

// Manifest is the decoded index of a checkpoint set.
type Manifest struct {
	SetName string
	// Meta is free-form provenance (the CLI stores the synthetic-data
	// recipe here so restore can check error bounds against regenerated
	// originals).
	Meta   string
	Codec  string
	Ranks  int
	Fields []FieldInfo
	// Chunks holds Ranks×len(Fields) entries in rank-major order (full sets;
	// nil on a delta set, whose payload is Blobs/Entries below).
	Chunks []ChunkInfo
	// ParityRanks is the number of Reed–Solomon parity shards appended to
	// each field's rank stripe (0 = no parity layer). Any <= ParityRanks
	// lost or corrupt data chunks of a field can be reconstructed.
	ParityRanks int
	// ParityChunks holds len(Fields)×ParityRanks entries, field-major:
	// entry field*ParityRanks+j authenticates parity shard j of that
	// field's stripe. Parity entries reuse ChunkInfo with Rank = Ranks+j
	// (a virtual parity rank); their Size is the stripe length — the
	// largest data chunk of the field, to which shorter chunks are
	// zero-padded during encode. In a delta set the stripe member of
	// (field, rank) is the concatenation of the blobs OWNED by that
	// (rank, field) stream — parity covers only locally-written bytes;
	// base-referenced content is the base set's responsibility.
	ParityChunks []ChunkInfo

	// Delta-set fields (zero values on full sets).
	//
	// BaseName names the immediate base set; BasePin is the CRC32C of the
	// base's canonical encoded manifest, so restore refuses a same-named
	// impostor. ChainDepth is this set's distance from the full set at the
	// root of the chain (0 = full set, 1 = delta on a full set; capped at
	// maxChainDepth).
	BaseName   string
	BasePin    uint32
	ChainDepth int
	// DedupMin/Avg/Max are the content-defined chunking bounds the set was
	// written with (bytes; alignment is fixed at dedupAlign).
	DedupMin, DedupAvg, DedupMax int
	// Blobs is the stored-chunk table; Entries holds Ranks×len(Fields)
	// chunk-ref streams in rank-major order, each tiling its field payload.
	Blobs   []BlobInfo
	Entries [][]ChunkRef
}

// IsDelta reports whether the set dedups against a base chain.
func (m *Manifest) IsDelta() bool { return m.ChainDepth > 0 }

// DedupParams returns the chunking geometry the set was written with.
func (m *Manifest) DedupParams() dedup.Params {
	return dedup.Params{MinSize: m.DedupMin, AvgSize: m.DedupAvg, MaxSize: m.DedupMax, Align: dedupAlign}
}

// LocalRawBytes is the uncompressed size of content stored in this set's
// own blobs (each shared blob counted once).
func (m *Manifest) LocalRawBytes() int64 {
	var n int64
	for _, b := range m.Blobs {
		n += int64(b.RawLen)
	}
	return n
}

// RefRawBytes is the uncompressed size of content satisfied by base
// references plus intra-set blob sharing — raw bytes the set did NOT store.
func (m *Manifest) RefRawBytes() int64 { return m.RawBytes() - m.LocalRawBytes() }

// DedupRatio is the fraction of the set's raw bytes not stored locally.
// 0 on full sets.
func (m *Manifest) DedupRatio() float64 {
	if !m.IsDelta() || m.RawBytes() == 0 {
		return 0
	}
	return float64(m.RefRawBytes()) / float64(m.RawBytes())
}

// NumChunks returns the data chunk count, Ranks × fields.
func (m *Manifest) NumChunks() int { return m.Ranks * len(m.Fields) }

// Chunk returns the entry for (rank, field).
func (m *Manifest) Chunk(rank, field int) *ChunkInfo {
	return &m.Chunks[rank*len(m.Fields)+field]
}

// ParityChunk returns the entry for parity shard j of the field's stripe.
func (m *Manifest) ParityChunk(field, j int) *ChunkInfo {
	return &m.ParityChunks[field*m.ParityRanks+j]
}

// ParityBytes is the total parity shard size on the medium.
func (m *Manifest) ParityBytes() int64 {
	var n int64
	for _, c := range m.ParityChunks {
		n += c.Size
	}
	return n
}

// RawBytes is the uncompressed payload size the set represents.
func (m *Manifest) RawBytes() int64 {
	var n int64
	for _, f := range m.Fields {
		n += int64(f.Elems()) * 4
	}
	return n * int64(m.Ranks)
}

// PayloadBytes is the total compressed chunk size (blob size on delta sets).
func (m *Manifest) PayloadBytes() int64 {
	var n int64
	for _, c := range m.Chunks {
		n += c.Size
	}
	for _, b := range m.Blobs {
		n += b.Size
	}
	return n
}

// appendExtent encodes one {offset, size, CRC} table entry — the shape chunk,
// blob and parity-shard tables share.
func appendExtent(b []byte, off, size int64, crc uint32) []byte {
	b = wire.AppendUint64(b, uint64(off))
	b = wire.AppendUint64(b, uint64(size))
	return wire.AppendUint32(b, crc)
}

// encode serializes the manifest: identity, field table, then the two counts
// that select the sections after them — ChainDepth 0 means a dense chunk
// table, > 0 base provenance + blob table + chunk-ref streams; ParityRanks
// > 0 appends the parity-shard table.
func (m *Manifest) encode() []byte {
	var b []byte
	b = wire.AppendUint32(b, magic)
	b = wire.AppendUint32(b, version)
	b = wire.AppendString(b, m.SetName)
	b = wire.AppendString(b, m.Meta)
	b = wire.AppendString(b, m.Codec)
	b = wire.AppendUint32(b, uint32(m.Ranks))
	b = wire.AppendUint32(b, uint32(len(m.Fields)))
	for _, f := range m.Fields {
		b = wire.AppendString(b, f.Name)
		b = wire.AppendDims(b, f.Dims)
		b = wire.AppendFloat64(b, f.ErrorBound)
	}
	b = wire.AppendUint32(b, uint32(m.ParityRanks))
	b = wire.AppendUint32(b, uint32(m.ChainDepth))
	if m.IsDelta() {
		b = wire.AppendString(b, m.BaseName)
		b = wire.AppendUint32(b, m.BasePin)
		b = wire.AppendUint32(b, uint32(m.DedupMin))
		b = wire.AppendUint32(b, uint32(m.DedupAvg))
		b = wire.AppendUint32(b, uint32(m.DedupMax))
		b = wire.AppendUint32(b, uint32(len(m.Blobs)))
		for _, bl := range m.Blobs {
			b = appendExtent(b, bl.Offset, bl.Size, bl.CRC)
			b = wire.AppendUint32(b, uint32(bl.RawLen))
			b = append(b, bl.Digest[:]...)
			b = wire.AppendUint32(b, uint32(bl.Refs))
		}
		for _, stream := range m.Entries {
			b = wire.AppendUint32(b, uint32(len(stream)))
			for _, e := range stream {
				b = wire.AppendUint32(b, uint32(e.RawLen))
				if e.Local() {
					b = append(b, 0)
					b = wire.AppendUint32(b, uint32(e.Blob))
				} else {
					b = append(b, 1)
					b = wire.AppendUint32(b, uint32(e.BaseRank))
					b = wire.AppendUint32(b, uint32(e.BaseField))
					b = wire.AppendUint64(b, uint64(e.BaseRawOff))
					b = append(b, e.Digest[:]...)
				}
			}
		}
	}
	for _, c := range m.Chunks {
		b = appendExtent(b, c.Offset, c.Size, c.CRC)
	}
	for _, c := range m.ParityChunks {
		b = appendExtent(b, c.Offset, c.Size, c.CRC)
	}
	return b
}

// validExtent reports whether [off, off+size) lies inside the payload region
// [headerLen, end) — the one bounds check behind every chunk, blob and
// parity-shard entry. It subtracts rather than adds, so a forged size
// cannot wrap the end of the extent back inside the region.
func validExtent(off, size, end int64) bool {
	return off >= headerLen && off <= end && size >= 0 && size <= end-off
}

// readExtent decodes and bounds-checks one table entry.
func readExtent(rd *wire.Reader, payloadEnd int64) (c ChunkInfo, ok bool) {
	c.Offset = int64(rd.Uint64())
	c.Size = int64(rd.Uint64())
	c.CRC = rd.Uint32()
	return c, rd.Err() == nil && validExtent(c.Offset, c.Size, payloadEnd)
}

// parseManifest decodes and validates a manifest against the set's file
// size. Every count is capped before allocation and every stored extent
// must lie inside the payload region.
func parseManifest(buf []byte, fileSize int64) (*Manifest, error) {
	rd := wire.NewReader(buf, ErrCorrupt)
	if rd.Uint32() != magic {
		return nil, ErrCorrupt
	}
	if v := rd.Uint32(); v != version {
		if rd.Err() != nil {
			return nil, ErrCorrupt
		}
		return nil, fmt.Errorf("ckpt: unsupported version %d", v)
	}
	var m Manifest
	var ok bool
	m.SetName = rd.String(maxNameLen)
	m.Meta = rd.String(maxMetaLen)
	m.Codec = rd.String(maxCodecLen)
	m.Ranks = int(rd.Uint32())
	nFields := int(rd.Uint32())
	if rd.Err() != nil || m.Codec == "" || m.Ranks <= 0 || m.Ranks > maxRanks ||
		nFields <= 0 || nFields > maxFields || m.Ranks*nFields > maxChunks {
		return nil, ErrCorrupt
	}
	m.Fields = make([]FieldInfo, nFields)
	for i := range m.Fields {
		f := &m.Fields[i]
		f.Name = rd.String(maxNameLen)
		f.Dims, _ = rd.Dims()
		f.ErrorBound = rd.Float64()
		if rd.Err() != nil || f.Name == "" || !(f.ErrorBound > 0) {
			return nil, ErrCorrupt
		}
	}
	m.ParityRanks = int(rd.Uint32())
	m.ChainDepth = int(rd.Uint32())
	if rd.Err() != nil || m.ParityRanks < 0 || m.ParityRanks > maxParityRanks ||
		(m.ParityRanks > 0 && m.Ranks+m.ParityRanks > ec.MaxShards) ||
		m.ChainDepth < 0 || m.ChainDepth > maxChainDepth {
		return nil, ErrCorrupt
	}
	payloadEnd := fileSize - footerLen
	if m.IsDelta() {
		if err := parseDelta(&rd, &m, payloadEnd); err != nil {
			return nil, err
		}
	} else {
		m.Chunks = make([]ChunkInfo, m.Ranks*nFields)
		for i := range m.Chunks {
			if m.Chunks[i], ok = readExtent(&rd, payloadEnd); !ok {
				return nil, ErrCorrupt
			}
			m.Chunks[i].Rank, m.Chunks[i].Field = i/nFields, i%nFields
		}
	}
	if m.ParityRanks > 0 {
		m.ParityChunks = make([]ChunkInfo, nFields*m.ParityRanks)
		for i := range m.ParityChunks {
			if m.ParityChunks[i], ok = readExtent(&rd, payloadEnd); !ok {
				return nil, ErrCorrupt
			}
			m.ParityChunks[i].Rank, m.ParityChunks[i].Field = m.Ranks+i%m.ParityRanks, i/m.ParityRanks
		}
		// Stripe coherence: every parity shard of a field carries the stripe
		// length — the longest region of any rank in that field, to which
		// shorter regions are zero-padded during encode.
		regions := m.regionSizes()
		for fi := 0; fi < nFields; fi++ {
			var stripeLen int64
			for r := 0; r < m.Ranks; r++ {
				stripeLen = max(stripeLen, regions[r*nFields+fi])
			}
			for j := 0; j < m.ParityRanks; j++ {
				if m.ParityChunk(fi, j).Size != stripeLen {
					return nil, ErrCorrupt
				}
			}
		}
	}
	if rd.Remaining() != 0 {
		return nil, ErrCorrupt
	}
	return &m, nil
}

// parseDelta decodes a delta set's sections (base provenance, chunking
// geometry, blob table, chunk-ref streams) into m, enforcing the format's
// structural invariants so a forged manifest can neither demand giant
// allocations nor smuggle an inconsistent dedup graph past restore:
//
//   - blobs tile the payload region contiguously from the header on;
//   - every (rank, field) ref stream tiles its field payload exactly;
//   - each blob's wire refcount equals the number of entries citing it;
//   - blob owners (first-citing stream) are non-decreasing — the order the
//     in-order drain loop necessarily commits them in.
func parseDelta(rd *wire.Reader, m *Manifest, payloadEnd int64) error {
	m.BaseName = rd.String(maxNameLen)
	m.BasePin = rd.Uint32()
	m.DedupMin = int(rd.Uint32())
	m.DedupAvg = int(rd.Uint32())
	m.DedupMax = int(rd.Uint32())
	p := m.DedupParams()
	if rd.Err() != nil || m.BaseName == "" || p.Validate() != nil {
		return ErrCorrupt
	}

	const blobWireLen = 8 + 8 + 4 + 4 + DigestWireLen + 4
	nBlobs := int(rd.Uint32())
	if rd.Err() != nil || nBlobs < 0 || nBlobs > maxChunks || int64(nBlobs)*blobWireLen > int64(rd.Remaining()) {
		return ErrCorrupt
	}
	m.Blobs = make([]BlobInfo, nBlobs)
	offset := int64(headerLen)
	for i := range m.Blobs {
		b := &m.Blobs[i]
		c, ok := readExtent(rd, payloadEnd)
		b.Offset, b.Size, b.CRC = c.Offset, c.Size, c.CRC
		b.RawLen = int(rd.Uint32())
		copy(b.Digest[:], rd.Bytes(DigestWireLen))
		b.Refs = int(rd.Uint32())
		b.owner = -1
		if rd.Err() != nil || !ok || b.Offset != offset || b.Size < 1 ||
			b.RawLen < dedupAlign || b.RawLen > dedup.MaxChunkSize || b.RawLen%dedupAlign != 0 ||
			b.Refs < 1 || b.Refs > maxChunks {
			return ErrCorrupt
		}
		offset += b.Size
	}

	nFields := len(m.Fields)
	n := m.Ranks * nFields
	m.Entries = make([][]ChunkRef, n)
	refs := make([]int, nBlobs) // recomputed per-blob refcounts
	for s := range m.Entries {
		fi := s % nFields
		fieldBytes := int64(m.Fields[fi].Elems()) * 4
		cnt := int(rd.Uint32())
		if rd.Err() != nil || cnt < 1 || int64(cnt) > fieldBytes/int64(p.MinSize)+2 ||
			int64(cnt)*9 > int64(rd.Remaining()) {
			return ErrCorrupt
		}
		stream := make([]ChunkRef, cnt)
		var tiled int64
		for i := range stream {
			e := &stream[i]
			e.RawLen = int(rd.Uint32())
			kind := rd.Bytes(1)
			if rd.Err() != nil || e.RawLen < dedupAlign || e.RawLen%dedupAlign != 0 {
				return ErrCorrupt
			}
			switch kind[0] {
			case 0:
				e.Blob = int(rd.Uint32())
				if rd.Err() != nil || e.Blob < 0 || e.Blob >= nBlobs ||
					m.Blobs[e.Blob].RawLen != e.RawLen {
					return ErrCorrupt
				}
				refs[e.Blob]++
				if refs[e.Blob] > m.Blobs[e.Blob].Refs { // refcount overflow
					return ErrCorrupt
				}
				if m.Blobs[e.Blob].owner < 0 {
					m.Blobs[e.Blob].owner = s
				}
			case 1:
				e.Blob = -1
				e.BaseRank = int(rd.Uint32())
				e.BaseField = int(rd.Uint32())
				e.BaseRawOff = int64(rd.Uint64())
				copy(e.Digest[:], rd.Bytes(DigestWireLen))
				if rd.Err() != nil || e.BaseRank < 0 || e.BaseRank >= m.Ranks ||
					e.BaseField < 0 || e.BaseField >= nFields ||
					e.BaseRawOff < 0 || e.BaseRawOff%dedupAlign != 0 ||
					e.BaseRawOff+int64(e.RawLen) > int64(m.Fields[e.BaseField].Elems())*4 {
					return ErrCorrupt
				}
			default:
				return ErrCorrupt
			}
			tiled += int64(e.RawLen)
			if tiled > fieldBytes {
				return ErrCorrupt
			}
		}
		if tiled != fieldBytes {
			return ErrCorrupt
		}
		m.Entries[s] = stream
	}
	// Every blob must be cited exactly Refs times, and owners must appear
	// in commit order (the in-order drain assigns blob IDs as streams cite
	// new content, so a later blob can never be first-cited earlier).
	owner := -1
	for i := range m.Blobs {
		if refs[i] != m.Blobs[i].Refs || m.Blobs[i].owner < owner {
			return ErrCorrupt
		}
		owner = m.Blobs[i].owner
	}
	return nil
}

// regionSizes returns, per rank-major (rank, field) stream, the stored bytes
// the parity layer protects as that stream's stripe member: its chunk on a
// full set, the concatenation of the blobs it owns on a delta set.
func (m *Manifest) regionSizes() []int64 {
	regions := make([]int64, m.NumChunks())
	for i := range m.Chunks {
		regions[i] = m.Chunks[i].Size
	}
	for i := range m.Blobs {
		regions[m.Blobs[i].owner] += m.Blobs[i].Size
	}
	return regions
}

// piece is the read path's uniform view of one stored payload extent — a
// (rank, field) chunk of a full set or a blob of a delta set: where it
// lies, the stream whose parity region carries it (Rank, Field), and the
// shape its container payload must decode to.
type piece struct {
	ChunkInfo
	dims []int
}

func (m *Manifest) pieces() []piece {
	nFields := len(m.Fields)
	ps := make([]piece, 0, len(m.Chunks)+len(m.Blobs))
	for _, c := range m.Chunks {
		ps = append(ps, piece{c, m.Fields[c.Field].Dims})
	}
	for _, b := range m.Blobs {
		ps = append(ps, piece{
			ChunkInfo{Rank: b.owner / nFields, Field: b.owner % nFields, Offset: b.Offset, Size: b.Size, CRC: b.CRC},
			[]int{b.RawLen / 4},
		})
	}
	return ps
}

// ReadManifest locates the footer on the medium, verifies the manifest's
// own digest, and decodes it.
func ReadManifest(med Medium) (*Manifest, error) {
	size := med.Size()
	if size < headerLen+footerLen {
		return nil, ErrCorrupt
	}
	var foot [footerLen]byte
	if _, err := med.ReadAt(foot[:], size-footerLen); err != nil {
		return nil, fmt.Errorf("ckpt: reading footer: %w", err)
	}
	rd := wire.NewReader(foot[:], ErrCorrupt)
	mOff := int64(rd.Uint64())
	mLen := int64(rd.Uint64())
	mCRC := rd.Uint32()
	if rd.Uint32() != magic || rd.Err() != nil {
		return nil, ErrCorrupt
	}
	if mOff < headerLen || mLen <= 0 || mOff+mLen != size-footerLen {
		return nil, ErrCorrupt
	}
	mb := make([]byte, mLen)
	if _, err := med.ReadAt(mb, mOff); err != nil {
		return nil, fmt.Errorf("ckpt: reading manifest: %w", err)
	}
	if Digest(mb) != mCRC {
		return nil, ErrCorrupt
	}
	return parseManifest(mb, size)
}

// OverheadBytes estimates the framing cost of a checkpoint set beyond its
// compressed payload: header, footer, and a manifest with the given field
// and rank counts (avgNameLen covers SetName/Meta/field names, ndims the
// per-field shape entries). The cluster fleet model uses this so
// contended-ingress traffic reflects manifest + chunk-table overheads, not
// just payload bytes.
func OverheadBytes(fields, ranks, avgNameLen, ndims int) int64 {
	if fields <= 0 || ranks <= 0 {
		return 0
	}
	if avgNameLen <= 0 {
		avgNameLen = 16
	}
	if ndims <= 0 {
		ndims = 3
	}
	manifest := int64(8)                                        // magic+version (the two section counts ride in the name slack)
	manifest += 3 * int64(4+avgNameLen)                         // set name, meta, codec
	manifest += 8                                               // ranks + nfields
	manifest += int64(fields) * int64(4+avgNameLen+4+8*ndims+8) // field table
	manifest += int64(fields) * int64(ranks) * 20               // chunk table
	return headerLen + footerLen + manifest
}
