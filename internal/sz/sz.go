// Package sz implements an SZ-style error-bounded lossy compressor for
// scientific floating-point arrays, reproducing the algorithmic pipeline of
// the SZ compressor the paper benchmarks (absolute-error mode):
//
//	Lorenzo prediction -> linear error-bound quantization ->
//	canonical Huffman coding -> LZ77+Huffman lossless stage
//
// The last stage decides for itself whether it runs: package lossless stores
// a partition whose Huffman output has nothing left for a byte coder to take.
//
// Prediction always runs against *reconstructed* neighbor values, so the
// absolute error bound holds end-to-end by construction; the property is
// verified per element during compression, and elements whose quantized
// reconstruction would violate the bound are stored verbatim
// ("unpredictable" values, as in SZ).
//
// Since format version 3 the array is split into independently predicted
// partitions (the SZ-OpenMP strategy): each partition runs the full
// predict/quantize/Huffman/lossless pipeline on its own, and the stream
// carries a partition index so both compression and decompression fan out
// across a worker pool. Format version 4 makes the partition granularity
// adaptive: arrays large enough to matter always split into at least
// partMinFanout partitions, descending below dims[0] (splitting a flattened
// leading axis of depth splitDepth) when the slowest dimension alone is too
// coarse. The partition layout is a pure function of the array shape — never
// of the worker count — so compressed bytes are identical at any worker count.
//
// The codec has one configuration, the one the paper runs: 2^16 quantization
// intervals and the first-order Lorenzo predictor. The header still records
// both, and the decoder refuses a stream that states anything else.
package sz

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"lcpio/internal/bitstream"
	"lcpio/internal/huffman"
	"lcpio/internal/lossless"
	"lcpio/internal/obs"
	"lcpio/internal/par"
	"lcpio/internal/wire"
)

func init() {
	// Compression ratios cluster between 2x and a few hundred x.
	obs.DefineHistogram("lcpio_sz_ratio", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512})
	// Huffman table builds finish in microseconds to low milliseconds.
	obs.DefineHistogram("lcpio_sz_huffman_build_seconds",
		[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1})
	// Per-partition pipeline durations, for shard fan-out diagnostics.
	obs.DefineHistogram("lcpio_sz_partition_seconds",
		[]float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10})
	// What the lossless stage's gate estimated it could remove minus what
	// deflate then removed, as shares of the stage's input: a model residual,
	// negative where the matcher found what a byte histogram cannot see.
	obs.DefineHistogram("lcpio_sz_lossless_estimate_residual",
		[]float64{-0.1, -0.03, -0.01, -0.003, 0, 0.003, 0.01, 0.03, 0.1})
}

const (
	magic   = 0x535A4C43 // "SZLC"
	version = 4

	// quantBits sets the quantization code alphabet to 2^16 intervals, SZ's
	// default. Code 0 is reserved for unpredictable values; codes
	// 1..2^16-1 carry quantized prediction errors centered at radius.
	quantBits  = 16
	quantCount = 1 << quantBits
	radius     = quantCount / 2

	// predOrder is the header word for the first-order Lorenzo predictor.
	predOrder = 1

	// maxPartitions bounds the partition count a decoder will accept.
	// With n <= wire.MaxElems and the partition sizing rule, legitimate
	// streams stay far below this.
	maxPartitions = 1 << 16
)

// Partition sizing knobs. All three depend only on the array shape, keeping
// the stream deterministic across worker counts; they are variables (not
// consts) only so tests can force degenerate layouts. Decoding always follows
// the stream's own partition index, never these values.
var (
	// partTargetElems caps how many elements one partition covers.
	partTargetElems = 1 << 20
	// partMinFanout is the partition count the layout aims for on arrays
	// with at least partMinFanout*partMinElems elements, so every worker
	// pool up to this width gets enough independent units to stay busy.
	partMinFanout = 16
	// partMinElems floors the partition size: below this, per-partition
	// Huffman tables and cold predictor boundaries start to cost real
	// compression ratio.
	partMinElems = 1 << 16
)

// ErrCorrupt is returned when decompressing malformed input.
var ErrCorrupt = errors.New("sz: corrupt stream")

// Compress compresses float32 data (row-major with the given dims, slowest
// first) under absolute error bound eb on all cores. For repeated calls, a
// reusable Handle amortizes all scratch allocations.
func Compress(data []float32, dims []int, eb float64) ([]byte, error) {
	return NewHandle(0).Compress(data, dims, eb)
}

// Compress64 is Compress for float64 data. The quantization pipeline runs
// in float64 throughout, so the bound holds at double precision.
func Compress64(data []float64, dims []int, eb float64) ([]byte, error) {
	return NewHandle(0).Compress64(data, dims, eb)
}

// Decompress reverses Compress, returning the reconstructed float32 array
// and dims. Decompressing a float64 stream returns an error directing the
// caller to Decompress64.
func Decompress(buf []byte) ([]float32, []int, error) {
	return NewHandle(0).Decompress(buf)
}

// Decompress64 reverses Compress64.
func Decompress64(buf []byte) ([]float64, []int, error) {
	return NewHandle(0).Decompress64(buf)
}

// --- partitioning ------------------------------------------------------------

// partSpan is a half-open range [lo, hi) of virtual rows: rows along the
// flattened leading axis of depth splitDepth.
type partSpan struct{ lo, hi int }

// partitionPlan chooses the split depth and row spans for dims. The layout
// depends only on dims (and the package-level sizing knobs): partitions cover
// whole virtual rows sized to roughly targetElems(dims) elements, where the
// virtual row axis flattens the leading splitDepth dimensions. splitDepth is
// the smallest depth whose flattened extent supports the partition count the
// target implies, so arrays whose dims[0] is small (a handful of thick slabs)
// still fan out.
func partitionPlan(dims []int, spans []partSpan) (splitDepth int, _ []partSpan) {
	n := 1
	for _, d := range dims {
		n *= d
	}
	target := (n + partMinFanout - 1) / partMinFanout
	if target > partTargetElems {
		target = partTargetElems
	}
	floor := partMinElems
	if floor > partTargetElems {
		floor = partTargetElems
	}
	if target < floor {
		target = floor
	}
	if target < 1 {
		target = 1
	}

	neededParts := (n + target - 1) / target
	splitDepth = 1
	ext := dims[0]
	for splitDepth < len(dims) && ext < neededParts {
		ext *= dims[splitDepth]
		splitDepth++
	}
	rowElems := n / ext
	rows := target / rowElems
	if rows < 1 {
		rows = 1
	}
	spans = spans[:0]
	for lo := 0; lo < ext; lo += rows {
		hi := lo + rows
		if hi > ext {
			hi = ext
		}
		spans = append(spans, partSpan{lo, hi})
	}
	return splitDepth, spans
}

// partDims writes the partition's shape — span rows substituted for the
// flattened leading axis, then the trailing dims — into buf, reusing its
// storage.
func partDims(dims []int, splitDepth, rows int, buf []int) []int {
	buf = append(buf[:0], rows)
	buf = append(buf, dims[splitDepth:]...)
	return buf
}

// --- compressor --------------------------------------------------------------

// laneScratch holds every buffer one *worker lane* needs to run partition
// pipelines back to back: quantization codes, the reconstruction mirror, the
// Huffman builder and bit writer, and the pre-lossless container. Lanes
// belong to the Handle, so steady-state compression allocates only the
// per-partition payloads' growth and the output stream. Memory scales with
// the worker count, never the partition count.
type laneScratch[F Float] struct {
	codes []int
	recon []F
	exact []F
	freqs []uint64
	hb    huffman.Builder
	w     bitstream.Writer
	inner []byte // pre-lossless partition container
	pdims []int
}

// partOut is one partition's surviving output: the lossless-coded payload
// (reused across calls — partition i keeps its buffer) plus assembly stats.
type partOut struct {
	payload []byte
	exact   int
	err     error
}

// engine carries the per-precision encode lanes and partition state of a
// Handle.
type engine[F Float] struct {
	lanes par.Lanes[laneScratch[F]]
	parts []partOut
}

// Handle is the reusable codec handle: the encode and decode lanes (scratch
// buffers, Huffman builders and tables, LZ77 state) persist across calls,
// eliminating steady-state allocations. Each direction's lanes are created
// on its first call, so a handle that only compresses never holds decode
// scratch and the reverse. A Handle is not safe for concurrent use; create
// one per goroutine (its internal worker pool already uses workers cores).
type Handle struct {
	workers int

	eng32 engine[float32]
	eng64 engine[float64]
	dec32 par.Lanes[decLane[float32]]
	dec64 par.Lanes[decLane[float64]]

	// Per-call partition index scratch: spans serves both directions, the
	// rest is the decoder's.
	spans    []partSpan
	payloads [][]byte
	plens    []int
	errs     []error
	pdims    []int
}

// NewHandle returns a Handle whose calls fan partitions out over workers
// goroutines (0 = all cores). The worker count never changes the compressed
// bytes.
func NewHandle(workers int) *Handle {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Handle{workers: workers}
}

// Name returns the codec's registry name.
func (h *Handle) Name() string { return "sz" }

func engineFor[F Float](h *Handle) *engine[F] {
	var z F
	if _, ok := any(z).(float32); ok {
		return any(&h.eng32).(*engine[F])
	}
	return any(&h.eng64).(*engine[F])
}

// Compress compresses float32 data under absolute error bound eb.
func (h *Handle) Compress(data []float32, dims []int, eb float64) ([]byte, error) {
	return compressInto(h, nil, data, dims, eb)
}

// CompressAppend appends the compressed stream to dst, reusing dst's
// capacity. With a warm Handle and sufficient dst capacity the call does not
// allocate.
func (h *Handle) CompressAppend(dst []byte, data []float32, dims []int, eb float64) ([]byte, error) {
	return compressInto(h, dst, data, dims, eb)
}

// Compress64 is Compress for float64 data.
func (h *Handle) Compress64(data []float64, dims []int, eb float64) ([]byte, error) {
	return compressInto(h, nil, data, dims, eb)
}

// CompressAppend64 is CompressAppend for float64 data.
func (h *Handle) CompressAppend64(dst []byte, data []float64, dims []int, eb float64) ([]byte, error) {
	return compressInto(h, dst, data, dims, eb)
}

func compressInto[F Float](h *Handle, dst []byte, data []F, dims []int, eb float64) ([]byte, error) {
	if eb <= 0 || math.IsNaN(eb) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("sz: invalid error bound %v", eb)
	}
	if err := wire.CheckDims("sz", len(data), dims); err != nil {
		return nil, err
	}

	rawBytes := int64(len(data)) * int64(wire.ElemBits[F]()/8)
	span := obs.Start("sz.compress")
	span.SetWorkload("sz.compress", rawBytes)
	defer span.End()

	splitDepth, spans := partitionPlan(dims, h.spans)
	h.spans = spans
	workers := h.workers
	obs.Set("lcpio_sz_workers", float64(workers))

	ext := 1
	for _, d := range dims[:splitDepth] {
		ext *= d
	}
	rowElems := len(data) / ext

	eng := engineFor[F](h)
	eng.lanes.SizeTo(min(workers, len(spans)))
	eng.parts = par.Grow(eng.parts, len(spans))
	parts := eng.parts
	for i := range parts {
		parts[i].err = nil
	}

	// The pipeline trace covers the *requested* workers: par clamps
	// goroutines to the partition count, so on a small array the surplus
	// clocks sit in wait-input for the whole wall — which is exactly the
	// serialization the occupancy report has to surface.
	pt := obs.StartPipeline("sz.compress", workers)
	par.RunWorker(len(spans), workers, func(w, i int) {
		wc := pt.Worker(w)
		lane := eng.lanes.Lane(w)
		pspan := obs.Start("sz.partition")
		lane.pdims = partDims(dims, splitDepth, spans[i].hi-spans[i].lo, lane.pdims)
		compressPartition(lane, &parts[i], wc, data[spans[i].lo*rowElems:spans[i].hi*rowElems], eb)
		obs.Observe("lcpio_sz_partition_seconds", pspan.End().Seconds())
		wc.WaitInput()
	})
	pt.End()

	var firstErr error
	totalExact := 0
	for i := range parts {
		if parts[i].err != nil && firstErr == nil {
			firstErr = parts[i].err
		}
		totalExact += parts[i].exact
	}
	if firstErr != nil {
		return nil, firstErr
	}
	obs.Add("lcpio_sz_elements_total", int64(len(data)))
	obs.Add("lcpio_sz_unpredictable_total", int64(totalExact))

	// Assemble: raw header + partition index + payloads. The header stays
	// outside the lossless coder so the index can be parsed (and partitions
	// fanned out) without first decoding anything.
	out := dst
	out = wire.AppendUint32(out, magic)
	out = wire.AppendUint32(out, version)
	out = wire.AppendUint32(out, wire.ElemBits[F]())
	out = wire.AppendUint32(out, quantBits)
	out = wire.AppendUint32(out, predOrder)
	out = wire.AppendFloat64(out, eb)
	out = wire.AppendDims(out, dims)
	out = wire.AppendUint32(out, uint32(splitDepth))
	out = wire.AppendUint32(out, uint32(len(spans)))
	for i, s := range spans {
		out = wire.AppendUint64(out, uint64(s.hi-s.lo))
		out = wire.AppendUint64(out, uint64(len(parts[i].payload)))
	}
	for i := range parts {
		out = append(out, parts[i].payload...)
	}

	obs.Add("lcpio_sz_in_bytes_total", rawBytes)
	obs.Add("lcpio_sz_out_bytes_total", int64(len(out)-len(dst)))
	if len(out) > len(dst) {
		obs.Observe("lcpio_sz_ratio", float64(rawBytes)/float64(len(out)-len(dst)))
	}
	return out, nil
}

// compressPartition runs the full predict/quantize/Huffman/lossless pipeline
// over one partition on the given lane, leaving the coded payload in
// out.payload. wc (nil when telemetry is off) tracks which stage the worker
// occupies.
func compressPartition[F Float](lane *laneScratch[F], out *partOut, wc *obs.WorkerClock, data []F, eb float64) {
	n := len(data)
	twoEB := 2 * eb
	lane.codes = wire.Sized(lane.codes, n)
	codes := lane.codes
	lane.recon = wire.Sized(lane.recon, n)
	recon := lane.recon
	lane.exact = lane.exact[:0]

	wc.Run("predict_quantize")
	qspan := obs.Start("sz.predict_quantize")
	switch rank, d0, d1, d2 := wire.Collapse(lane.pdims); rank {
	case 1:
		quantize1D(data, recon, codes, &lane.exact, twoEB, eb)
	case 2:
		quantize2D(data, recon, codes, &lane.exact, d1, d2, twoEB, eb)
	default:
		quantize3D(data, recon, codes, &lane.exact, d0, d1, d2, twoEB, eb)
	}
	qspan.End()
	out.exact = len(lane.exact)

	// Entropy-code the quantization codes.
	wc.Run("huffman_build")
	hspan := obs.Start("sz.huffman_build")
	lane.freqs = wire.Sized(lane.freqs, quantCount)
	freqs := lane.freqs
	huffman.HistogramInto(freqs, codes)
	code, err := lane.hb.Build(freqs)
	obs.Observe("lcpio_sz_huffman_build_seconds", hspan.End().Seconds())
	if err != nil {
		out.err = fmt.Errorf("sz: %w", err)
		return
	}
	wc.Run("huffman_encode")
	espan := obs.Start("sz.huffman_encode")
	w := &lane.w
	w.Reset()
	code.WriteTable(w)
	code.EncodeAll(w, codes)
	huffPayload := w.Bytes()
	espan.End()

	// Assemble the pre-lossless partition container.
	inner := lane.inner[:0]
	inner = wire.AppendUint64(inner, uint64(len(lane.exact)))
	for _, v := range lane.exact {
		inner = wire.AppendValue(inner, v)
	}
	inner = wire.AppendUint64(inner, uint64(len(huffPayload)))
	inner = append(inner, huffPayload...)
	lane.inner = inner

	wc.Run("lossless")
	lspan := obs.Start("sz.lossless")
	out.payload = lossless.AppendCompress(out.payload[:0], inner, lossless.Defaults())
	lspan.End()
	if obs.Enabled() {
		obs.Add("lcpio_sz_lossless_in_bytes_total", int64(len(inner)))
		obs.Add("lcpio_sz_lossless_out_bytes_total", int64(len(out.payload)))
		if lossless.Stored(out.payload) {
			obs.Add("lcpio_sz_lossless_stored_partitions_total", 1)
		} else {
			obs.Add("lcpio_sz_lossless_deflated_partitions_total", 1)
			// The model against the measurement, where the gate consulted
			// the model: a partition too short to estimate has no residual.
			if est, asked := lossless.EntropyGain(inner); asked {
				saved := 1 - float64(len(out.payload))/float64(len(inner))
				obs.Observe("lcpio_sz_lossless_estimate_residual", est-saved)
			}
		}
	}
}

// --- decompressor ------------------------------------------------------------

// decLane holds one worker lane's decode-side buffers, reused across the
// partitions the lane picks up and across calls: the Huffman table parse
// alone touches ~NumSymbols of storage per partition, so reusing it is most
// of the decode-side allocation win.
type decLane[F Float] struct {
	codes []int
	raw   []byte // lossless-decoded partition container
	exact []F
	code  huffman.Code
	lens  []uint8
	br    bitstream.Reader
}

func decLanesFor[F Float](h *Handle) *par.Lanes[decLane[F]] {
	var z F
	if _, ok := any(z).(float32); ok {
		return any(&h.dec32).(*par.Lanes[decLane[F]])
	}
	return any(&h.dec64).(*par.Lanes[decLane[F]])
}

// Decompress reverses Compress.
func (h *Handle) Decompress(buf []byte) ([]float32, []int, error) {
	return decompressWith[float32](h, nil, buf)
}

// DecompressInto is Decompress landing in dst's backing array when it has
// the capacity for the stream's element count, avoiding the output
// allocation; it allocates like Decompress when it does not. Every element
// of the returned slice is written, or an error is returned.
func (h *Handle) DecompressInto(dst []float32, buf []byte) ([]float32, []int, error) {
	return decompressWith(h, dst, buf)
}

// Decompress64 reverses Compress64.
func (h *Handle) Decompress64(buf []byte) ([]float64, []int, error) {
	return decompressWith[float64](h, nil, buf)
}

// DecompressInto64 is DecompressInto for float64 streams.
func (h *Handle) DecompressInto64(dst []float64, buf []byte) ([]float64, []int, error) {
	return decompressWith(h, dst, buf)
}

func decompressWith[F Float](h *Handle, dst []F, buf []byte) ([]F, []int, error) {
	span := obs.Start("sz.decompress")
	defer span.End()

	rd := wire.NewReader(buf, ErrCorrupt)
	if rd.Uint32() != magic {
		return nil, nil, ErrCorrupt
	}
	if ver := rd.Uint32(); ver != version {
		if rd.Err() != nil {
			return nil, nil, ErrCorrupt
		}
		return nil, nil, fmt.Errorf("sz: unsupported version %d", ver)
	}
	if kind := rd.Uint32(); kind != wire.ElemBits[F]() {
		if rd.Err() != nil {
			return nil, nil, ErrCorrupt
		}
		return nil, nil, fmt.Errorf("sz: stream holds float%d values, caller asked for float%d",
			kind, wire.ElemBits[F]())
	}
	// The one configuration: any other quantizer width or predictor order
	// (streams older builds could write) is refused before anything is sized.
	qb, po := rd.Uint32(), rd.Uint32()
	if rd.Err() == nil && (qb != quantBits || po != predOrder) {
		return nil, nil, fmt.Errorf("sz: unsupported configuration (quantBits %d, predictor order %d)", qb, po)
	}
	eb := rd.Float64()
	dims, n := rd.Dims()
	splitDepth := int(rd.Uint32())
	if rd.Err() != nil || !(eb > 0) || math.IsInf(eb, 0) || splitDepth < 1 || splitDepth > len(dims) {
		return nil, nil, ErrCorrupt
	}
	ext := 1
	for _, dd := range dims[:splitDepth] {
		ext *= dd
	}
	numParts := int(rd.Uint32())
	if rd.Err() != nil || numParts <= 0 || numParts > maxPartitions {
		return nil, nil, ErrCorrupt
	}
	h.spans = h.spans[:0]
	h.payloads = wire.Sized(h.payloads, numParts)
	payloads := h.payloads
	rowSum := 0
	payloadSum := 0
	h.plens = wire.Sized(h.plens, numParts)
	lens := h.plens
	for i := 0; i < numParts; i++ {
		rows := rd.Uint64()
		plen := rd.Uint64()
		if rd.Err() != nil || rows == 0 || rows > uint64(ext-rowSum) ||
			plen > uint64(rd.Remaining()) {
			return nil, nil, ErrCorrupt
		}
		h.spans = append(h.spans, partSpan{rowSum, rowSum + int(rows)})
		lens[i] = int(plen)
		rowSum += int(rows)
		payloadSum += int(plen)
	}
	if rowSum != ext || payloadSum > rd.Remaining() {
		return nil, nil, ErrCorrupt
	}
	// Plausibility: every element costs at least one Huffman bit before the
	// lossless stage, which expands at most lossless.MaxExpansion bytes per
	// payload byte. A partition claiming far more elements than its payload
	// could carry is corrupt, and must not drive the output allocation.
	rowElems := n / ext
	for i, sp := range h.spans {
		elems := uint64(sp.hi-sp.lo) * uint64(rowElems)
		if elems/8 > uint64(lens[i])*lossless.MaxExpansion+1024 {
			return nil, nil, ErrCorrupt
		}
	}
	for i := range payloads {
		payloads[i] = rd.Bytes(lens[i])
	}
	if rd.Err() != nil {
		return nil, nil, ErrCorrupt
	}

	workers := h.workers
	obs.Set("lcpio_sz_workers", float64(workers))
	span.SetWorkload("sz.decompress", int64(n)*int64(wire.ElemBits[F]()/8))

	// Every check that refuses a stream from its header has run: dst is
	// used when it can hold the array, and nothing was sized before now.
	out := wire.Sized(dst, n)
	lanes := decLanesFor[F](h)
	spans := h.spans
	lanes.SizeTo(min(workers, len(spans)))
	h.errs = wire.Sized(h.errs, len(spans))
	errs := h.errs
	pdLen := 1 + len(dims) - splitDepth
	h.pdims = wire.Sized(h.pdims, len(spans)*pdLen)
	pdimsBuf := h.pdims

	pt := obs.StartPipeline("sz.decompress", workers)
	par.RunWorker(len(spans), workers, func(w, i int) {
		wc := pt.Worker(w)
		wc.Run("decode_partition")
		lane := lanes.Lane(w)
		pd := partDims(dims, splitDepth, spans[i].hi-spans[i].lo,
			pdimsBuf[i*pdLen:i*pdLen:i*pdLen+pdLen])
		errs[i] = decodePartition(lane, payloads[i], out[spans[i].lo*rowElems:spans[i].hi*rowElems],
			pd, 2*eb)
		wc.WaitInput()
	})
	pt.End()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return out, dims, nil
}

// decodePartition decodes one partition payload into outPart (the
// partition's disjoint sub-range of the output array).
func decodePartition[F Float](lane *decLane[F], payload []byte, outPart []F, dims []int, twoEB float64) error {
	raw, err := lossless.AppendDecompress(lane.raw[:0], payload)
	if err != nil {
		return fmt.Errorf("sz: lossless stage: %w", err)
	}
	lane.raw = raw

	n := len(outPart)
	rd := wire.NewReader(raw, ErrCorrupt)
	numExact := int(rd.Uint64())
	if rd.Err() != nil || numExact < 0 || numExact > n {
		return ErrCorrupt
	}
	lane.exact = wire.Sized(lane.exact, numExact)
	exact := lane.exact
	for i := range exact {
		exact[i] = wire.ReadValue[F](&rd)
	}
	if rd.Err() != nil {
		return ErrCorrupt
	}
	huffLen := int(rd.Uint64())
	if rd.Err() != nil || huffLen < 0 || huffLen > rd.Remaining() {
		return ErrCorrupt
	}
	huffPayload := rd.Bytes(huffLen)
	if rd.Err() != nil {
		return ErrCorrupt
	}

	br := &lane.br
	br.Reset(huffPayload)
	code := &lane.code
	if err := huffman.ReadTableInto(br, code, &lane.lens, quantCount); err != nil {
		return fmt.Errorf("sz: huffman table: %w", err)
	}
	lane.codes = wire.Sized(lane.codes, n)
	codes := lane.codes
	if err := code.DecodeAll(br, codes, quantCount); err != nil {
		return fmt.Errorf("sz: huffman payload: %w", err)
	}

	exactIdx := 0
	nextExact := func() (F, error) {
		if exactIdx >= len(exact) {
			return 0, ErrCorrupt
		}
		v := exact[exactIdx]
		exactIdx++
		return v, nil
	}
	switch rank, d0, d1, d2 := wire.Collapse(dims); rank {
	case 1:
		err = reconstruct1D(outPart, codes, nextExact, twoEB)
	case 2:
		err = reconstruct2D(outPart, codes, nextExact, d1, d2, twoEB)
	default:
		err = reconstruct3D(outPart, codes, nextExact, d0, d1, d2, twoEB)
	}
	if err != nil {
		return err
	}
	if exactIdx != len(exact) {
		return ErrCorrupt
	}
	return nil
}
