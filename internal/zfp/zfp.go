// Package zfp implements a ZFP-style fixed-accuracy lossy compressor for
// scientific floating-point arrays, reproducing the pipeline of the ZFP
// compressor the paper benchmarks:
//
//	4^d blocking -> block-floating-point (common exponent) fixed-point
//	conversion -> lifted orthogonal decorrelating transform -> negabinary
//	mapping -> embedded group-tested bit-plane coding
//
// Fixed-accuracy mode codes each block's bit planes down to the tightest
// cutoff a short search verifies: where the reference implementation derives
// one conservative cutoff from the absolute error tolerance alone, this
// codec starts each block where the previous block of its shard ended and
// moves one plane at a time — down on a failed verification, up while the
// block's error leaves room. A verification reconstructs the block exactly
// as the decoder will (the lifted transform's right-shifts are not exactly
// reversible, as in the reference implementation), every emitted cutoff has
// passed one, and a block that fails even with every plane is stored
// verbatim, so the user-facing guarantee max|x - x'| <= eb always holds.
//
// Since format version 3, fixed-accuracy streams group the (independent)
// blocks into shards: shards are encoded concurrently into separate
// bitstreams and concatenated behind a shard-length index, and decoding
// fans out the same way. The shard size adapts to the block grid (see
// shardPlan) so that even mid-sized arrays split into enough shards to
// occupy a wide worker pool, but it is a pure function of the array shape —
// never of the worker count — so compressed bytes are identical at any
// worker count. The size is recorded in the stream, which is how
// pre-adaptive fixed-size streams remain decodable. Fixed accuracy is the
// one mode the codec has: a stream whose mode word names the retired
// fixed-rate (1) or fixed-precision (2) mode, or any other, is refused from
// its header. So is one whose element-width word is not 32: the codec holds
// float32 values only.
package zfp

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"lcpio/internal/bitstream"
	"lcpio/internal/obs"
	"lcpio/internal/par"
	"lcpio/internal/wire"
)

func init() {
	// Per-shard encode durations, for fan-out diagnostics.
	obs.DefineHistogram("lcpio_zfp_shard_seconds",
		[]float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10})
}

const (
	magic   = 0x5A46504C // "ZFPL"
	version = 3

	blockEdge = 4

	// maxShards bounds the shard count a decoder will accept; with
	// n <= wire.MaxElems elements, >= 4 elements per block and >=
	// shardMinBlocks blocks per shard, legitimate streams stay well below it.
	maxShards = 1 << 26
)

// ErrCorrupt is returned when decompressing malformed input.
var ErrCorrupt = errors.New("zfp: corrupt stream")

// block tags
const (
	tagCoded = 0 // embedded-coded block
	tagRaw   = 1 // verbatim float32 payload (tolerance unreachable)
	tagZero  = 2 // all-zero block
)

// modeAccuracy is the header's mode word for fixed accuracy, the one mode
// the codec writes and reads.
const modeAccuracy = 0

// header is the parsed stream preamble.
type header struct {
	dims []int
	eb   float64 // absolute tolerance
	// byte offset where the block payload starts
	payloadOff int
	n          int
}

// appendHeader appends the stream preamble to dst.
func appendHeader(dst []byte, dims []int, eb float64) []byte {
	dst = wire.AppendUint32(dst, magic)
	dst = wire.AppendUint32(dst, version)
	dst = wire.AppendUint32(dst, wire.ElemBits)
	dst = wire.AppendUint32(dst, modeAccuracy)
	dst = wire.AppendDims(dst, dims)
	return wire.AppendFloat64(dst, eb)
}

func parseHeader(buf []byte) (header, error) {
	var h header
	rd := wire.NewReader(buf, ErrCorrupt)
	if rd.Uint32() != magic {
		return h, ErrCorrupt
	}
	if v := rd.Uint32(); v != version {
		if rd.Err() != nil {
			return h, ErrCorrupt
		}
		return h, fmt.Errorf("zfp: unsupported version %d", v)
	}
	if bits := rd.Uint32(); bits != wire.ElemBits {
		if rd.Err() != nil {
			return h, ErrCorrupt
		}
		return h, fmt.Errorf("zfp: unsupported element width %d", bits)
	}
	if mode := rd.Uint32(); mode != modeAccuracy {
		if rd.Err() != nil {
			return h, ErrCorrupt
		}
		return h, fmt.Errorf("zfp: unsupported mode %d", mode)
	}
	h.dims, h.n = rd.Dims()
	h.eb = rd.Float64()
	if rd.Err() != nil {
		return h, ErrCorrupt
	}
	h.payloadOff = rd.Offset()
	return h, nil
}

// --- shard geometry ----------------------------------------------------------

// blockGrid returns the per-axis block counts of the row-major block grid;
// unused axes have a single block.
func blockGrid(d0, d1, d2, dim int) (nb0, nb1, nb2 int) {
	nb0, nb1, nb2 = 1, 1, (d2+blockEdge-1)/blockEdge
	if dim >= 2 {
		nb1 = (d1 + blockEdge - 1) / blockEdge
	}
	if dim >= 3 {
		nb0 = (d0 + blockEdge - 1) / blockEdge
	}
	return nb0, nb1, nb2
}

// blockCoords maps a linear row-major block index to grid coordinates.
func blockCoords(idx, nb1, nb2 int) (bi, bj, bk int) {
	bi = idx / (nb1 * nb2)
	rem := idx % (nb1 * nb2)
	return bi, rem / nb2, rem % nb2
}

// Shard sizing knobs. Variables (not constants) so tests can pin them; the
// plan they produce depends only on the block grid, never on worker count.
var (
	// shardTargetBlocks caps the blocks per shard: large grids split into
	// shards of this size, keeping per-shard latency (and the scheduler's
	// load-balancing granule) bounded.
	shardTargetBlocks = 4096

	// shardMinFanout is the shard count the plan aims for when the grid is
	// too small to fill shardMinFanout shards of shardTargetBlocks each, so
	// mid-sized arrays still fan out across a wide worker pool.
	shardMinFanout = 16

	// shardMinBlocks floors the shard size: below it, per-shard index and
	// dispatch overhead outweighs any parallelism gain.
	shardMinBlocks = 64
)

// shardPlan returns the blocks-per-shard and shard count for a grid of
// totalBlocks blocks: ceil(totalBlocks/shardMinFanout) clamped to
// [shardMinBlocks, shardTargetBlocks].
func shardPlan(totalBlocks int) (sb, numShards int) {
	sb = (totalBlocks + shardMinFanout - 1) / shardMinFanout
	if sb < shardMinBlocks {
		sb = shardMinBlocks
	}
	if sb > shardTargetBlocks {
		sb = shardTargetBlocks
	}
	return sb, (totalBlocks + sb - 1) / sb
}

// --- compressor --------------------------------------------------------------

// zlane carries one worker's block-pipeline buffers plus the bitstream the
// worker encodes the current shard into. Lanes are owned by a single worker
// index, so scratch is reused without locking and total scratch memory
// scales with the worker count, not the shard count.
type zlane struct {
	blk   [64]float32
	coef  [64]int64
	dcoef [64]int64
	nb    [64]uint64
	w     bitstream.Writer

	// What the blocks this lane has coded since the call began cost:
	// planes emitted and cutoff verifications run (compressInto drains both).
	planes, verifies int64

	// off is how many planes below the tolerance's plane the lane's last
	// coded block settled; encodeShard resets it to seedOff.
	off int
}

// zpartOut holds one shard's finished payload; the byte buffer is reused
// across Compress calls.
type zpartOut struct {
	payload []byte
}

// Handle is the reusable codec handle pooling all block and shard scratch of
// both directions. Each direction's lanes are created on its first call, so
// a handle that only compresses never holds decode scratch and the reverse.
// Not safe for concurrent use; its internal worker pool already spreads
// shards across workers cores.
type Handle struct {
	workers int

	lanes par.Lanes[zlane]
	parts []zpartOut
	dec   par.Lanes[zdecLane]

	// Per-call shard index scratch of the decoder.
	lens     []int
	payloads [][]byte
	errs     []error
}

// NewHandle returns a Handle whose fixed-accuracy calls fan shards out over
// workers goroutines (0 = all cores). The worker count never changes the
// compressed bytes.
func NewHandle(workers int) *Handle {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Handle{workers: workers}
}

// Name returns the codec's registry name.
func (h *Handle) Name() string { return "zfp" }

// Compress compresses float32 data (row-major, dims slowest first) in
// fixed-accuracy mode with absolute tolerance eb.
func (h *Handle) Compress(data []float32, dims []int, eb float64) ([]byte, error) {
	return compressInto(h, nil, data, dims, eb)
}

// CompressAppend appends the compressed stream to dst; with a warm Handle
// and sufficient dst capacity the call does not allocate.
func (h *Handle) CompressAppend(dst []byte, data []float32, dims []int, eb float64) ([]byte, error) {
	return compressInto(h, dst, data, dims, eb)
}

func compressInto(h *Handle, dst []byte, data []float32, dims []int, eb float64) ([]byte, error) {
	if eb <= 0 || math.IsNaN(eb) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("zfp: invalid tolerance %v", eb)
	}
	if err := wire.CheckDims("zfp", len(data), dims); err != nil {
		return nil, err
	}
	dim, d0, d1, d2 := wire.Collapse(dims)

	span := obs.Start("zfp.compress")
	rawBytes := int64(len(data)) * wire.ElemBits / 8
	defer span.End()

	nb0, nb1, nb2 := blockGrid(d0, d1, d2, dim)
	totalBlocks := nb0 * nb1 * nb2
	sb, numShards := shardPlan(totalBlocks)
	workers := h.workers
	obs.Set("lcpio_zfp_workers", float64(workers))

	h.lanes.SizeTo(min(workers, numShards))
	h.parts = par.Grow(h.parts, numShards)
	parts := h.parts

	// The pipeline trace covers the *requested* workers: par clamps
	// goroutines to the shard count, so surplus clocks spend the wall in
	// wait-input — exactly the serialization the occupancy report surfaces.
	pt := obs.StartPipeline("zfp.compress", workers)
	par.RunWorker(numShards, workers, func(w, s int) {
		wc := pt.Worker(w)
		wc.Run("encode_shard")
		ln := h.lanes.Lane(w)
		sspan := span.Child("zfp.shard")
		lo := s * sb
		hi := lo + sb
		if hi > totalBlocks {
			hi = totalBlocks
		}
		encodeShard(sspan, ln, data, d0, d1, d2, dim, nb1, nb2, lo, hi, eb)
		parts[s].payload = append(parts[s].payload[:0], ln.w.Bytes()...)
		obs.Observe("lcpio_zfp_shard_seconds", sspan.End().Seconds())
		wc.WaitInput()
	})
	pt.End()

	// Assemble: header + shard index + byte-aligned shard payloads.
	out := dst
	out = appendHeader(out, dims, eb)
	out = wire.AppendUint32(out, uint32(numShards))
	out = wire.AppendUint32(out, uint32(sb))
	for i := range parts {
		out = wire.AppendUint64(out, uint64(len(parts[i].payload)))
	}
	for i := range parts {
		out = append(out, parts[i].payload...)
	}

	// Planes per coded block is what a block costs to code; verifies per
	// block is what the cutoff search costs.
	var planes, verifies int64
	for _, ln := range h.lanes.All() {
		if ln != nil {
			planes, verifies = planes+ln.planes, verifies+ln.verifies
			ln.planes, ln.verifies = 0, 0
		}
	}
	obs.Add("lcpio_zfp_blocks_total", int64(totalBlocks))
	obs.Add("lcpio_zfp_planes_total", planes)
	obs.Add("lcpio_zfp_verify_total", verifies)
	obs.Add("lcpio_zfp_in_bytes_total", rawBytes)
	obs.Add("lcpio_zfp_out_bytes_total", int64(len(out)-len(dst)))
	return out, nil
}

// encodeShard encodes blocks [loBlk, hiBlk) into ln.w, under the shard's
// span.
func encodeShard(shard obs.Span, ln *zlane, data []float32, d0, d1, d2, dim, nb1, nb2, loBlk, hiBlk int, eb float64) {
	co := cutoffFor(eb)
	ln.w.Reset()
	ln.off = seedOff[dim]
	bspan := shard.Child("zfp.block_transform")
	for idx := loBlk; idx < hiBlk; idx++ {
		bi, bj, bk := blockCoords(idx, nb1, nb2)
		gatherBlock(data, d0, d1, d2, dim, bi, bj, bk, ln.blk[:])
		encodeBlock(&ln.w, ln, dim, co)
	}
	bspan.End()
}

// --- decompressor ------------------------------------------------------------

// zdecLane carries one worker's decode-side block buffers; lanes are owned
// by a single worker index and reused across Decompress calls.
type zdecLane struct {
	blk  [64]float32
	coef [64]int64
	nb   [64]uint64
	r    bitstream.Reader
	err  error
}

// shardIndex grows and returns the reusable per-shard index slices.
func (h *Handle) shardIndex(numShards int) ([]int, [][]byte, []error) {
	if cap(h.lens) < numShards {
		h.lens = make([]int, numShards)
		h.payloads = make([][]byte, numShards)
		h.errs = make([]error, numShards)
	}
	return h.lens[:numShards], h.payloads[:numShards], h.errs[:numShards]
}

// Decompress reverses Compress.
func (h *Handle) Decompress(buf []byte) ([]float32, []int, error) {
	return h.DecompressInto(nil, buf)
}

// DecompressInto is Decompress landing in dst's backing array when it has
// the capacity for the stream's element count, avoiding the output
// allocation; it allocates like Decompress when it does not. Every element
// of the returned slice is written, or an error is returned.
func (h *Handle) DecompressInto(dst []float32, buf []byte) ([]float32, []int, error) {
	hdr, err := parseHeader(buf)
	if err != nil {
		return nil, nil, err
	}
	if !(hdr.eb > 0) || math.IsInf(hdr.eb, 0) {
		return nil, nil, ErrCorrupt
	}
	span := obs.Start("zfp.decompress")
	defer span.End()

	dim, d0, d1, d2 := wire.Collapse(hdr.dims)
	nb0, nb1, nb2 := blockGrid(d0, d1, d2, dim)
	totalBlocks := nb0 * nb1 * nb2

	rd := wire.NewReader(buf[hdr.payloadOff:], ErrCorrupt)
	numShards := int(rd.Uint32())
	sb := int(rd.Uint32())
	if rd.Err() != nil || numShards <= 0 || numShards > maxShards ||
		sb <= 0 || numShards != (totalBlocks+sb-1)/sb {
		return nil, nil, ErrCorrupt
	}
	lens, payloads, errs := h.shardIndex(numShards)
	total := 0
	for i := range lens {
		l := rd.Uint64()
		if rd.Err() != nil || l > uint64(rd.Remaining()) {
			return nil, nil, ErrCorrupt
		}
		lens[i] = int(l)
		total += int(l)
	}
	if total > rd.Remaining() {
		return nil, nil, ErrCorrupt
	}
	// Plausibility: every block costs at least a 2-bit tag, so a stream whose
	// payload bytes cannot cover totalBlocks/4 is corrupt. Checked before the
	// output slice is sized from header-claimed dims.
	if totalBlocks > total*4+64 {
		return nil, nil, ErrCorrupt
	}
	for i := range payloads {
		payloads[i] = rd.Bytes(lens[i])
	}
	if rd.Err() != nil {
		return nil, nil, ErrCorrupt
	}

	workers := h.workers
	obs.Set("lcpio_zfp_workers", float64(workers))

	out := wire.Sized(dst, hdr.n)
	h.dec.SizeTo(min(workers, numShards))
	pt := obs.StartPipeline("zfp.decompress", workers)
	par.RunWorker(numShards, workers, func(w, s int) {
		wc := pt.Worker(w)
		wc.Run("decode_shard")
		ln := h.dec.Lane(w)
		ln.err = nil
		lo := s * sb
		hi := lo + sb
		if hi > totalBlocks {
			hi = totalBlocks
		}
		decodeShard(ln, payloads[s], out, d0, d1, d2, dim, nb1, nb2, lo, hi)
		errs[s] = ln.err
		wc.WaitInput()
	})
	pt.End()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return out, hdr.dims, nil
}

// decodeShard decodes blocks [loBlk, hiBlk) from payload, scattering each
// into its (disjoint) region of out.
func decodeShard(ln *zdecLane, payload []byte, out []float32, d0, d1, d2, dim, nb1, nb2, loBlk, hiBlk int) {
	ln.r.Reset(payload)
	for idx := loBlk; idx < hiBlk; idx++ {
		if err := decodeBlock(&ln.r, ln, dim); err != nil {
			ln.err = err
			return
		}
		bi, bj, bk := blockCoords(idx, nb1, nb2)
		scatterBlock(out, d0, d1, d2, dim, bi, bj, bk, ln.blk[:])
	}
}

func blockSize(dim int) int {
	switch dim {
	case 1:
		return blockEdge
	case 2:
		return blockEdge * blockEdge
	default:
		return blockEdge * blockEdge * blockEdge
	}
}

// row is one block row: four consecutive samples along the fastest axis,
// moved as a unit where the array holds all four.
type row [blockEdge]float32

// gatherRow fills blk's first row from data[at+kb:], replicating the array's
// last sample past its edge d2.
func gatherRow(blk, data []float32, at, kb, d2 int) {
	if kb+blockEdge <= d2 {
		*(*row)(blk) = row(data[at+kb:])
		return
	}
	for k := 0; k < blockEdge; k++ {
		blk[k] = data[at+min(kb+k, d2-1)]
	}
}

// scatterRow writes blk's first row to out[at+kb:], up to the array's edge.
func scatterRow(out, blk []float32, at, kb, d2 int) {
	if kb+blockEdge <= d2 {
		*(*row)(out[at+kb:]) = row(blk)
		return
	}
	for k := 0; kb+k < d2; k++ {
		out[at+kb+k] = blk[k]
	}
}

// gatherBlock copies one 4^dim block into blk, replicating edge samples for
// partial blocks (padding never affects reconstruction of real samples).
func gatherBlock(data []float32, d0, d1, d2, dim, bi, bj, bk int, blk []float32) {
	ib, jb, kb := bi*blockEdge, bj*blockEdge, bk*blockEdge
	switch dim {
	case 1:
		gatherRow(blk, data, 0, kb, d2)
	case 2:
		for j := 0; j < blockEdge; j++ {
			sj := min(jb+j, d1-1)
			gatherRow(blk[j*blockEdge:], data, sj*d2, kb, d2)
		}
	default:
		for i := 0; i < blockEdge; i++ {
			si := min(ib+i, d0-1)
			for j := 0; j < blockEdge; j++ {
				sj := min(jb+j, d1-1)
				gatherRow(blk[(i*blockEdge+j)*blockEdge:], data, (si*d1+sj)*d2, kb, d2)
			}
		}
	}
}

// scatterBlock writes back the in-bounds portion of a decoded block.
func scatterBlock(out []float32, d0, d1, d2, dim, bi, bj, bk int, blk []float32) {
	ib, jb, kb := bi*blockEdge, bj*blockEdge, bk*blockEdge
	switch dim {
	case 1:
		scatterRow(out, blk, 0, kb, d2)
	case 2:
		for j := 0; j < blockEdge && jb+j < d1; j++ {
			scatterRow(out, blk[j*blockEdge:], (jb+j)*d2, kb, d2)
		}
	default:
		for i := 0; i < blockEdge && ib+i < d0; i++ {
			for j := 0; j < blockEdge && jb+j < d1; j++ {
				scatterRow(out, blk[(i*blockEdge+j)*blockEdge:], ((ib+i)*d1+jb+j)*d2, kb, d2)
			}
		}
	}
}
