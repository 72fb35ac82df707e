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
// intervals and the first-order Lorenzo predictor, over float32 values. The
// header still records all three, and the decoder refuses a stream that
// states anything else.
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
	// pool up to this width gets enough independent units to stay busy
	// (compressInto pairs partitions only beyond the pool's width).
	partMinFanout = 16
	// partMinElems floors the partition size: below this, per-partition
	// Huffman tables and cold predictor boundaries start to cost real
	// compression ratio.
	partMinElems = 1 << 16
)

// ErrCorrupt is returned when decompressing malformed input.
var ErrCorrupt = errors.New("sz: corrupt stream")

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
// pipelines back to back: two sets of quantize outputs (one per side of a
// paired pass; a partition that runs alone uses the first), the Huffman
// builder and bit writer, and the pre-lossless container. Lanes belong to the
// Handle, so steady-state compression allocates only the per-partition
// payloads' growth and the output stream. Memory scales with the worker
// count, never the partition count.
type laneScratch struct {
	q     [2]quantBufs
	freqs []uint64
	hb    huffman.Builder
	w     bitstream.Writer
	inner []byte // pre-lossless partition container
	pdims []int
}

// quantBufs is one partition's quantize output: its codes, the
// reconstruction the predictor reads back, and its verbatim values.
type quantBufs struct {
	codes []int
	recon []float32
	exact []float32
}

// sized readies q for a partition of n elements and returns it.
func (q *quantBufs) sized(n int) *quantBufs {
	q.codes = wire.Sized(q.codes, n)
	q.recon = wire.Sized(q.recon, n)
	q.exact = q.exact[:0]
	return q
}

// partOut is one partition's surviving output: the lossless-coded payload
// (reused across calls — partition i keeps its buffer) plus assembly stats.
type partOut struct {
	payload []byte
	exact   int
	err     error
}

// Handle is the reusable codec handle: the encode and decode lanes (scratch
// buffers, Huffman builders and tables, LZ77 state) persist across calls,
// eliminating steady-state allocations. Each direction's lanes are created
// on its first call, so a handle that only compresses never holds decode
// scratch and the reverse. A Handle is not safe for concurrent use; create
// one per goroutine (its internal worker pool already uses workers cores).
type Handle struct {
	workers int

	lanes par.Lanes[laneScratch]
	parts []partOut
	dec   par.Lanes[decLane]

	// Per-call partition index scratch: spans serves both directions, the
	// rest is the decoder's.
	spans    []partSpan
	payloads [][]byte
	plens    []int
	errs     []error
	pdims    []int

	// check is Check's decode target, grown to the largest array seen.
	check []float32
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

// Compress compresses float32 data (row-major with the given dims, slowest
// first) under absolute error bound eb.
func (h *Handle) Compress(data []float32, dims []int, eb float64) ([]byte, error) {
	return compressInto(h, nil, data, dims, eb)
}

// CompressAppend appends the compressed stream to dst, reusing dst's
// capacity. With a warm Handle and sufficient dst capacity the call does not
// allocate.
func (h *Handle) CompressAppend(dst []byte, data []float32, dims []int, eb float64) ([]byte, error) {
	return compressInto(h, dst, data, dims, eb)
}

func compressInto(h *Handle, dst []byte, data []float32, dims []int, eb float64) ([]byte, error) {
	if eb <= 0 || math.IsNaN(eb) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("sz: invalid error bound %v", eb)
	}
	if err := wire.CheckDims("sz", len(data), dims); err != nil {
		return nil, err
	}

	rawBytes := int64(len(data)) * wire.ElemBits / 8
	span := obs.Start("sz.compress")
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

	// Partitions (2t, 2t+1) for t < pairs share one quantize3Dx2 pass; the
	// rest run alone through quantize3D. A pair takes longer than one
	// partition but less than two, so it pays only while no worker is left
	// idle: pairs is as many as keep the task count at or above workers, and
	// a pool as wide as the partition count runs the unpaired schedule.
	// Either way each partition's bytes are the ones quantize3D alone would
	// have led to.
	pairs := min(len(spans)/2, max(0, len(spans)-workers))
	tasks := len(spans) - pairs
	h.lanes.SizeTo(min(workers, tasks))
	h.parts = par.Grow(h.parts, len(spans))
	parts := h.parts
	for i := range parts {
		parts[i].err = nil
	}

	// The pipeline trace covers the *requested* workers: par clamps
	// goroutines to the task count, so on a small array the surplus
	// clocks sit in wait-input for the whole wall — which is exactly the
	// serialization the occupancy report has to surface.
	pt := obs.StartPipeline("sz.compress", workers)
	par.RunWorker(tasks, workers, func(w, t int) {
		wc := pt.Worker(w)
		lane := h.lanes.Lane(w)
		i, n := 2*t, 2
		if t >= pairs {
			i, n = pairs+t, 1
		}
		task := spans[i : i+n]
		rows := task[0].hi - task[0].lo
		if len(task) == 2 && task[1].hi-task[1].lo == rows {
			a, b := task[0], task[1]
			lane.pdims = partDims(dims, splitDepth, rows, lane.pdims)
			compressPair(lane, parts[i:i+2], wc, span, data[a.lo*rowElems:a.hi*rowElems], data[b.lo*rowElems:b.hi*rowElems], eb)
		} else {
			for k, s := range task {
				lane.pdims = partDims(dims, splitDepth, s.hi-s.lo, lane.pdims)
				compressPartition(lane, &parts[i+k], wc, span, data[s.lo*rowElems:s.hi*rowElems], eb)
			}
		}
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
	out = wire.AppendUint32(out, wire.ElemBits)
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
// over one partition of shape lane.pdims on the given lane, leaving the coded
// payload in out.payload. Its spans hang under parent, the sz.compress span,
// by explicit parentage, since lanes run on their own goroutines. wc (nil when
// telemetry is off) tracks which stage the worker occupies.
func compressPartition(lane *laneScratch, out *partOut, wc *obs.WorkerClock, parent obs.Span, data []float32, eb float64) {
	pspan := parent.Child("sz.partition")
	q := lane.q[0].sized(len(data))
	wc.Run("predict_quantize")
	qspan := pspan.Child("sz.predict_quantize")
	_, d0, d1, d2 := wire.Collapse(lane.pdims)
	quantize3D(data, q.recon, q.codes, &q.exact, d0, d1, d2, 2*eb, eb)
	qspan.End()
	encodePartition(lane, pspan, q, out, wc)
	obs.Observe("lcpio_sz_partition_seconds", pspan.End().Seconds())
}

// compressPair is compressPartition over two partitions of shape lane.pdims:
// one quantize3Dx2 pass, then each encoded in index order into out[0] and
// out[1]. The two sz.partition spans are siblings, one after the other: the
// first holds the shared pass (one sz.predict_quantize span) and its own
// encode, the second only its encode. The worker clock counts a
// predict_quantize item for each.
func compressPair(lane *laneScratch, out []partOut, wc *obs.WorkerClock, parent obs.Span, a, b []float32, eb float64) {
	pa := parent.Child("sz.partition")
	qa, qb := lane.q[0].sized(len(a)), lane.q[1].sized(len(b))
	wc.Run("predict_quantize")
	wc.Run("predict_quantize")
	qspan := pa.Child("sz.predict_quantize")
	_, d0, d1, d2 := wire.Collapse(lane.pdims)
	quantize3Dx2(a, b, qa.recon, qb.recon, qa.codes, qb.codes, &qa.exact, &qb.exact, d0, d1, d2, 2*eb, eb)
	qspan.End()
	encodePartition(lane, pa, qa, &out[0], wc)
	obs.Observe("lcpio_sz_partition_seconds", pa.End().Seconds())
	pb := parent.Child("sz.partition")
	encodePartition(lane, pb, qb, &out[1], wc)
	obs.Observe("lcpio_sz_partition_seconds", pb.End().Seconds())
}

// encodePartition is the rest of a partition's pipeline once q holds its
// quantize output: histogram, Huffman build and encode, the pre-lossless
// container and the lossless stage, leaving the payload in out.payload. Its
// stage spans hang under pspan.
func encodePartition(lane *laneScratch, pspan obs.Span, q *quantBufs, out *partOut, wc *obs.WorkerClock) {
	codes := q.codes
	out.exact = len(q.exact)

	// Entropy-code the quantization codes.
	wc.Run("huffman_build")
	hspan := pspan.Child("sz.huffman_build")
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
	espan := pspan.Child("sz.huffman_encode")
	w := &lane.w
	w.Reset()
	code.WriteTable(w)
	code.EncodeAll(w, codes)
	huffPayload := w.Bytes()
	espan.End()

	// Assemble the pre-lossless partition container.
	inner := lane.inner[:0]
	inner = wire.AppendUint64(inner, uint64(len(q.exact)))
	for _, v := range q.exact {
		inner = wire.AppendFloat32(inner, v)
	}
	inner = wire.AppendUint64(inner, uint64(len(huffPayload)))
	inner = append(inner, huffPayload...)
	lane.inner = inner

	wc.Run("lossless")
	lspan := pspan.Child("sz.lossless")
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
// partitions the lane picks up and across calls: the Huffman code's
// alphabet-sized tables are most of the decode-side allocation a lane saves.
type decLane struct {
	raw   []byte // lossless-decoded partition container
	exact []float32
	code  huffman.Code
	br    bitstream.Reader
}

// Decompress reverses Compress.
func (h *Handle) Decompress(buf []byte) ([]float32, []int, error) {
	return h.DecompressInto(nil, buf)
}

// Check returns the error and dims DecompressInto returns on buf: it
// decodes into an array the handle keeps, so a call allocates for the
// values only when the array is larger than any before.
func (h *Handle) Check(buf []byte) ([]int, error) {
	vals, dims, err := h.DecompressInto(h.check, buf)
	if err != nil {
		return nil, err
	}
	h.check = vals
	return dims, nil
}

// streamIndex is what a stream's header and partition index state, once
// readIndex has checked it: the bound, the shape, the split depth, the
// element count and the elements per virtual row. The partitions' row spans
// and payloads are left in the Handle's spans and payloads.
type streamIndex struct {
	eb          float64
	dims        []int
	splitDepth  int
	n, rowElems int
}

// DecompressInto is Decompress landing in dst's backing array when it has
// the capacity for the stream's element count, avoiding the output
// allocation; it allocates like Decompress when it does not. Every element
// of the returned slice is written, or an error is returned.
func (h *Handle) DecompressInto(dst []float32, buf []byte) ([]float32, []int, error) {
	span := obs.Start("sz.decompress")
	defer span.End()

	ix, err := h.readIndex(buf)
	if err != nil {
		return nil, nil, err
	}
	workers := h.workers
	obs.Set("lcpio_sz_workers", float64(workers))

	// Every check that refuses a stream from its header has run: dst is
	// used when it can hold the array, and nothing was sized before now.
	out := wire.Sized(dst, ix.n)
	spans := h.spans
	h.dec.SizeTo(min(workers, len(spans)))
	h.errs = wire.Sized(h.errs, len(spans))
	errs := h.errs
	pdLen := 1 + len(ix.dims) - ix.splitDepth
	h.pdims = wire.Sized(h.pdims, len(spans)*pdLen)
	pdimsBuf := h.pdims

	pt := obs.StartPipeline("sz.decompress", workers)
	par.RunWorker(len(spans), workers, func(w, i int) {
		wc := pt.Worker(w)
		wc.Run("decode_partition")
		lane := h.dec.Lane(w)
		pd := partDims(ix.dims, ix.splitDepth, spans[i].hi-spans[i].lo,
			pdimsBuf[i*pdLen:i*pdLen:i*pdLen+pdLen])
		errs[i] = decodePartition(lane, h.payloads[i], out[spans[i].lo*ix.rowElems:spans[i].hi*ix.rowElems],
			pd, 2*ix.eb)
		wc.WaitInput()
	})
	pt.End()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return out, ix.dims, nil
}

// readIndex checks buf's header and partition index, leaving the partitions'
// row spans in h.spans and their payloads in h.payloads.
func (h *Handle) readIndex(buf []byte) (streamIndex, error) {
	var ix streamIndex
	rd := wire.NewReader(buf, ErrCorrupt)
	if rd.Uint32() != magic {
		return ix, ErrCorrupt
	}
	if ver := rd.Uint32(); ver != version {
		if rd.Err() != nil {
			return ix, ErrCorrupt
		}
		return ix, fmt.Errorf("sz: unsupported version %d", ver)
	}
	if bits := rd.Uint32(); bits != wire.ElemBits {
		if rd.Err() != nil {
			return ix, ErrCorrupt
		}
		return ix, fmt.Errorf("sz: unsupported element width %d", bits)
	}
	// The one configuration: any other quantizer width or predictor order
	// (streams older builds could write) is refused before anything is sized.
	qb, po := rd.Uint32(), rd.Uint32()
	if rd.Err() == nil && (qb != quantBits || po != predOrder) {
		return ix, fmt.Errorf("sz: unsupported configuration (quantBits %d, predictor order %d)", qb, po)
	}
	eb := rd.Float64()
	dims, n := rd.Dims(nil)
	splitDepth := int(rd.Uint32())
	if rd.Err() != nil || !(eb > 0) || math.IsInf(eb, 0) || splitDepth < 1 || splitDepth > len(dims) {
		return ix, ErrCorrupt
	}
	ext := 1
	for _, dd := range dims[:splitDepth] {
		ext *= dd
	}
	numParts := int(rd.Uint32())
	if rd.Err() != nil || numParts <= 0 || numParts > maxPartitions {
		return ix, ErrCorrupt
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
			return ix, ErrCorrupt
		}
		h.spans = append(h.spans, partSpan{rowSum, rowSum + int(rows)})
		lens[i] = int(plen)
		rowSum += int(rows)
		payloadSum += int(plen)
	}
	if rowSum != ext || payloadSum > rd.Remaining() {
		return ix, ErrCorrupt
	}
	// Plausibility: every element costs at least one Huffman bit before the
	// lossless stage, which expands at most lossless.MaxExpansion bytes per
	// payload byte. A partition claiming far more elements than its payload
	// could carry is corrupt, and must not drive the output allocation.
	rowElems := n / ext
	for i, sp := range h.spans {
		elems := uint64(sp.hi-sp.lo) * uint64(rowElems)
		if elems/8 > uint64(lens[i])*lossless.MaxExpansion+1024 {
			return ix, ErrCorrupt
		}
	}
	for i := range payloads {
		payloads[i] = rd.Bytes(lens[i])
	}
	if rd.Err() != nil {
		return ix, ErrCorrupt
	}
	return streamIndex{eb: eb, dims: dims, splitDepth: splitDepth, n: n, rowElems: rowElems}, nil
}

// decodePartition decodes one partition payload into outPart (the
// partition's disjoint sub-range of the output array) in one pass: each
// element's Huffman symbol goes straight into the Lorenzo reconstruction.
func decodePartition(lane *decLane, payload []byte, outPart []float32, dims []int, twoEB float64) error {
	exact, err := openPartition(lane, payload, len(outPart))
	if err != nil {
		return err
	}
	d := lane.code.NewDecoder(&lane.br)
	_, d0, d1, d2 := wire.Collapse(dims)
	used, err := decode3D(outPart, &d, exact, d0, d1, d2, twoEB)
	// A Huffman error outranks a verbatim-count mismatch, as it did when
	// every symbol was decoded before the first value was reconstructed.
	if err != nil {
		return fmt.Errorf("sz: huffman payload: %w", err)
	}
	if used != len(exact) {
		return ErrCorrupt
	}
	return nil
}

// openPartition undoes the lossless stage of a partition of n elements and
// parses the container under it: it returns the verbatim values, and leaves
// the Huffman table in lane.code and lane.br at the coded symbols after it.
func openPartition(lane *decLane, payload []byte, n int) ([]float32, error) {
	raw, err := lossless.AppendDecompress(lane.raw[:0], payload)
	if err != nil {
		return nil, fmt.Errorf("sz: lossless stage: %w", err)
	}
	lane.raw = raw

	rd := wire.NewReader(raw, ErrCorrupt)
	numExact := int(rd.Uint64())
	if rd.Err() != nil || numExact < 0 || numExact > n {
		return nil, ErrCorrupt
	}
	lane.exact = wire.Sized(lane.exact, numExact)
	exact := lane.exact
	for i := range exact {
		exact[i] = rd.Float32()
	}
	if rd.Err() != nil {
		return nil, ErrCorrupt
	}
	huffLen := int(rd.Uint64())
	if rd.Err() != nil || huffLen < 0 || huffLen > rd.Remaining() {
		return nil, ErrCorrupt
	}
	huffPayload := rd.Bytes(huffLen)
	if rd.Err() != nil {
		return nil, ErrCorrupt
	}

	lane.br.Reset(huffPayload)
	if err := huffman.ReadTableInto(&lane.br, &lane.code, quantCount); err != nil {
		return nil, fmt.Errorf("sz: huffman table: %w", err)
	}
	return exact, nil
}
