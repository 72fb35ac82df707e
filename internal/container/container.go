// Package container provides a chunked file format over the lossy codecs:
// the array is split into slabs along its slowest dimension, each slab is
// compressed independently (in parallel across a worker pool), and a chunk
// index makes any slab independently readable. This is how large snapshot
// fields are actually dumped on HPC systems — one file per rank is avoided
// by packing many independently-decodable chunks, which also lets the
// multi-core client saturate compression while the NFS writer drains
// completed chunks.
package container

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"lcpio/internal/compress"
	"lcpio/internal/lossless"
	"lcpio/internal/par"
	"lcpio/internal/wire"
)

const (
	magic   = 0x4C43504B // "LCPK"
	version = 2

	// DefaultChunkElems targets a few MB of raw data per chunk.
	DefaultChunkElems = 1 << 20
)

// ErrCorrupt is returned for malformed containers.
var ErrCorrupt = errors.New("container: corrupt stream")

// Options controls packing.
type Options struct {
	// ChunkElems is the target raw elements per chunk (the actual chunk
	// boundary snaps to whole slabs along the slowest dimension). 0 means
	// DefaultChunkElems.
	ChunkElems int
	// Parallelism is the worker count; 0 means GOMAXPROCS. Each worker
	// holds one reusable codec handle (with intra-codec parallelism 1, so
	// total concurrency stays at Parallelism) and reuses it across chunks.
	Parallelism int
}

func (o Options) normalized() Options {
	if o.ChunkElems <= 0 {
		o.ChunkElems = DefaultChunkElems
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// Info describes a parsed container.
type Info struct {
	Codec      string
	Dims       []int
	ErrorBound float64
	NumChunks  int
	// RawBytes and PackedBytes give the overall ratio.
	RawBytes    int64
	PackedBytes int64
}

// Ratio is the overall compression ratio.
func (i Info) Ratio() float64 {
	if i.PackedBytes == 0 {
		return 0
	}
	return float64(i.RawBytes) / float64(i.PackedBytes)
}

// chunkSpan is one slab: rows [lo,hi) of the slowest dimension.
type chunkSpan struct {
	lo, hi int
}

// chunkSpans splits dims into slabs of roughly targetElems.
func chunkSpans(dims []int, targetElems int) []chunkSpan {
	d0 := dims[0]
	rowElems := 1
	for _, d := range dims[1:] {
		rowElems *= d
	}
	rows := max(1, targetElems/max(rowElems, 1))
	var out []chunkSpan
	for lo := 0; lo < d0; lo += rows {
		out = append(out, chunkSpan{lo: lo, hi: min(lo+rows, d0)})
	}
	return out
}

// Pack compresses float32 data into a chunked container with the named
// codec.
func Pack(codecName string, data []float32, dims []int, eb float64, opts Options) ([]byte, error) {
	return pack(codecName, data, dims, eb, opts, nil)
}

// Packer packs many arrays through one fixed set of per-worker codec
// handles, so repeated Pack calls (the checkpoint store compresses one
// container per rank×field) reuse all codec scratch instead of
// re-allocating handles per call. Output bytes are identical to Pack's.
// A Packer is NOT safe for concurrent use — create one per goroutine.
type Packer struct {
	codec   string
	opts    Options
	handles []compress.Handle
}

// NewPacker returns a Packer for the named codec. opts.Parallelism fixes
// the worker count for every subsequent Pack call.
func NewPacker(codecName string, opts Options) (*Packer, error) {
	if err := compress.CheckName(codecName); err != nil {
		return nil, err
	}
	opts = opts.normalized()
	return &Packer{
		codec:   codecName,
		opts:    opts,
		handles: make([]compress.Handle, opts.Parallelism),
	}, nil
}

// Pack compresses one float32 array, reusing the Packer's handles.
func (p *Packer) Pack(data []float32, dims []int, eb float64) ([]byte, error) {
	return pack(p.codec, data, dims, eb, p.opts, p.handles)
}

func pack(codecName string, data []float32, dims []int, eb float64, opts Options,
	handles []compress.Handle) ([]byte, error) {
	if err := compress.CheckName(codecName); err != nil {
		return nil, err
	}
	if err := wire.CheckDims("container", len(data), dims); err != nil {
		return nil, err
	}
	if !(eb > 0) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("container: invalid error bound %v", eb)
	}
	opts = opts.normalized()

	spans := chunkSpans(dims, opts.ChunkElems)
	rowElems := len(data) / dims[0]
	blobs := make([][]byte, len(spans))
	errs := make([]error, len(spans))

	// Worker pool over chunks: each worker owns one reusable codec handle
	// (intra-codec parallelism 1 — the pool itself is the fan-out), so slab
	// compression reaches the codecs' zero-allocation steady state. A
	// Packer passes its long-lived handle set in; one-shot Pack calls
	// allocate a local one.
	if len(handles) < opts.Parallelism {
		handles = make([]compress.Handle, opts.Parallelism)
	}
	par.RunWorker(len(spans), opts.Parallelism, func(w, ci int) {
		h := handles[w]
		if h == nil {
			var err error
			if h, err = compress.NewHandle(codecName, 1); err != nil {
				errs[ci] = err
				return
			}
			handles[w] = h
		}
		span := spans[ci]
		chunkDims := append([]int{span.hi - span.lo}, dims[1:]...)
		chunk := data[span.lo*rowElems : span.hi*rowElems]
		blob, err := h.Compress(chunk, chunkDims, eb)
		if err != nil {
			errs[ci] = err
			return
		}
		blobs[ci] = blob
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("container: chunk compression: %w", err)
		}
	}

	// Header: magic, version, codec, elem bits, dims, eb, chunk table
	// (row spans + byte offsets), then blobs.
	var out []byte
	out = wire.AppendUint32(out, magic)
	out = wire.AppendUint32(out, version)
	out = wire.AppendString(out, codecName)
	out = wire.AppendUint32(out, wire.ElemBits)
	out = wire.AppendDims(out, dims)
	out = wire.AppendFloat64(out, eb)
	out = wire.AppendUint32(out, uint32(len(spans)))
	for ci, span := range spans {
		out = wire.AppendUint64(out, uint64(span.lo))
		out = wire.AppendUint64(out, uint64(span.hi))
		out = wire.AppendUint64(out, uint64(len(blobs[ci])))
	}
	for _, blob := range blobs {
		out = append(out, blob...)
	}
	return out, nil
}

// parsed is the decoded header plus blob locations.
type parsed struct {
	info   Info
	n      int // elements the dims describe
	spans  []chunkSpan
	blobAt []int // byte offset of each blob
	blobSz []int
}

func parse(buf []byte) (parsed, error) {
	var p parsed
	rd := wire.NewReader(buf, ErrCorrupt)
	if rd.Uint32() != magic {
		return p, ErrCorrupt
	}
	if v := rd.Uint32(); v != version {
		if rd.Err() != nil {
			return p, ErrCorrupt
		}
		return p, fmt.Errorf("container: unsupported version %d", v)
	}
	p.info.Codec = rd.String(64)
	bits := rd.Uint32()
	if rd.Err() != nil || p.info.Codec == "" {
		return p, ErrCorrupt
	}
	if bits != wire.ElemBits {
		return p, fmt.Errorf("container: unsupported element width %d", bits)
	}
	p.info.Dims, p.n = rd.Dims()
	p.info.ErrorBound = rd.Float64()
	nChunks := int(rd.Uint32())
	if rd.Err() != nil || nChunks <= 0 || nChunks > 1<<24 {
		return p, ErrCorrupt
	}
	p.info.NumChunks = nChunks
	p.info.RawBytes = int64(p.n) * wire.ElemBits / 8
	p.info.PackedBytes = int64(len(buf))
	prevHi := 0
	var sizes []int
	for i := 0; i < nChunks; i++ {
		lo := int(rd.Uint64())
		hi := int(rd.Uint64())
		sz := int(rd.Uint64())
		if rd.Err() != nil || lo != prevHi || hi <= lo || hi > p.info.Dims[0] || sz < 0 {
			return p, ErrCorrupt
		}
		prevHi = hi
		p.spans = append(p.spans, chunkSpan{lo: lo, hi: hi})
		sizes = append(sizes, sz)
	}
	if prevHi != p.info.Dims[0] {
		return p, ErrCorrupt
	}
	off := rd.Offset()
	for _, sz := range sizes {
		if off+sz > len(buf) {
			return p, ErrCorrupt
		}
		p.blobAt = append(p.blobAt, off)
		p.blobSz = append(p.blobSz, sz)
		off += sz
	}
	return p, nil
}

// Stat parses a container's metadata without decompressing anything.
func Stat(buf []byte) (Info, error) {
	p, err := parse(buf)
	return p.info, err
}

// Unpack decompresses a float32 container, fanning chunks across workers.
func Unpack(buf []byte, opts Options) ([]float32, []int, error) {
	return NewUnpacker(opts).Unpack(buf)
}

// Unpacker unpacks many containers through one fixed set of per-worker
// codec handles — the read-side Packer: repeated calls (a restore decodes
// one container per rank×field, the daemon inflate-verifies one per chunk
// frame) reuse all codec scratch instead of building a handle per call.
// An Unpacker is NOT safe for concurrent use — create one per goroutine.
type Unpacker struct {
	opts Options
	// handles holds one handle per worker for each codec seen, built on
	// first use; codec names the set the container being read uses.
	handles map[string][]compress.Handle
	codec   string
	// slab is Check's decode target, grown to the largest chunk seen.
	slab []float32
}

// NewUnpacker returns an Unpacker. opts.Parallelism fixes the worker count
// for every subsequent call; opts.ChunkElems is a packing knob and ignored.
func NewUnpacker(opts Options) *Unpacker {
	return &Unpacker{opts: opts.normalized(), handles: make(map[string][]compress.Handle)}
}

// open parses buf, checks that it names a known codec and that no chunk
// claims more elements than its blob could carry, and selects the handles of
// the container's codec.
func (u *Unpacker) open(buf []byte) (p parsed, rowElems int, err error) {
	if p, err = parse(buf); err != nil {
		return p, 0, err
	}
	if err := compress.CheckName(p.info.Codec); err != nil {
		return p, 0, err
	}
	rowElems = p.n / p.info.Dims[0]
	// Plausibility: every codec spends at least one bit per element before
	// its lossless stage, which expands at most lossless.MaxExpansion bytes
	// per stored byte. A chunk claiming far more elements than its blob could
	// carry is corrupt, and must not drive the output allocation.
	for i, span := range p.spans {
		elems := uint64(span.hi-span.lo) * uint64(rowElems)
		if elems/8 > uint64(p.blobSz[i])*lossless.MaxExpansion+1024 {
			return p, 0, ErrCorrupt
		}
	}
	if u.codec = p.info.Codec; u.handles[u.codec] == nil {
		u.handles[u.codec] = make([]compress.Handle, u.opts.Parallelism)
	}
	return p, rowElems, nil
}

// handle returns worker w's handle for the selected codec, building it on
// first use. Workers touch only their own slot of a slice open put in place.
func (u *Unpacker) handle(w int) (compress.Handle, error) {
	hs := u.handles[u.codec]
	if hs[w] == nil {
		h, err := compress.NewHandle(u.codec, 1)
		if err != nil {
			return nil, err
		}
		hs[w] = h
	}
	return hs[w], nil
}

// decodeChunk decodes chunk ci of p into dst, which holds exactly the
// chunk's elements: a blob that claims any other count is corrupt (one
// claiming more lands in an array of the codec's own, never past dst).
func decodeChunk(h compress.Handle, buf []byte, p *parsed, ci int, dst []float32) error {
	span := p.spans[ci]
	vals, dims, err := h.DecompressInto(dst, buf[p.blobAt[ci]:p.blobAt[ci]+p.blobSz[ci]])
	if err != nil {
		return err
	}
	if len(dims) == 0 || dims[0] != span.hi-span.lo || len(vals) != len(dst) {
		return ErrCorrupt
	}
	return nil
}

// Unpack decompresses one float32 container, reusing the Unpacker's
// handles. Each chunk decodes straight into its span of the one output
// array.
func (u *Unpacker) Unpack(buf []byte) ([]float32, []int, error) {
	p, rowElems, err := u.open(buf)
	if err != nil {
		return nil, nil, err
	}
	out := make([]float32, p.n)
	errs := make([]error, len(p.spans))
	par.RunWorker(len(p.spans), u.opts.Parallelism, func(w, ci int) {
		h, err := u.handle(w)
		if err != nil {
			errs[ci] = err
			return
		}
		// The capacity stops at the span's end: whatever a blob claims, its
		// decode cannot reach a neighbour's elements.
		lo, hi := p.spans[ci].lo*rowElems, p.spans[ci].hi*rowElems
		errs[ci] = decodeChunk(h, buf, &p, ci, out[lo:hi:hi])
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("container: chunk decompression: %w", err)
		}
	}
	return out, p.info.Dims, nil
}

// Check decodes every chunk of a float32 container that must hold exactly
// elems elements and discards the values: it reports what Unpack would —
// every parse, shape and decode error — without materializing the array.
// The element count is checked against the header before anything is
// decoded, and chunks decode one at a time into a single slab the Unpacker
// keeps, so a call allocates only when a chunk is larger than any before.
func (u *Unpacker) Check(buf []byte, elems int) error {
	p, rowElems, err := u.open(buf)
	if err != nil {
		return err
	}
	if p.n != elems {
		return fmt.Errorf("container: holds %d elements, want %d", p.n, elems)
	}
	h, err := u.handle(0)
	if err != nil {
		return err
	}
	for ci, span := range p.spans {
		n := (span.hi - span.lo) * rowElems
		if cap(u.slab) < n {
			u.slab = make([]float32, n)
		}
		if err := decodeChunk(h, buf, &p, ci, u.slab[:n:n]); err != nil {
			return fmt.Errorf("container: chunk decompression: %w", err)
		}
	}
	return nil
}
