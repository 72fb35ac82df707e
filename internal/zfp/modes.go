package zfp

import (
	"fmt"
	"math"
	"math/bits"

	"lcpio/internal/bitstream"
	"lcpio/internal/wire"
)

// Fixed-rate mode: every block consumes exactly the same bit budget, which
// is the property that gives the reference codec its random-access arrays —
// block i lives at a known bit offset. Each block is laid out as a 10-bit
// biased exponent followed by (budget-10) bits of budget-truncated embedded
// plane coding; all-zero blocks use the reserved exponent 0.

const (
	emaxBits = emaxFieldBits
	// zeroEmax is the reserved biased exponent marking an all-zero block.
	zeroEmax = 0

	// MinBitsPerValue keeps room for the per-block exponent.
	MinBitsPerValue = 4
	// MaxBitsPerValue caps the budget at raw float64 size.
	MaxBitsPerValue = 80
)

// CompressFixedRate compresses float32 data at a fixed budget of
// bitsPerValue bits per value (rounded to a whole number of bits per
// block). Data must be finite: fixed-rate blocks have no raw escape hatch.
func CompressFixedRate(data []float32, dims []int, bitsPerValue float64) ([]byte, error) {
	return compressFixedRate(data, dims, bitsPerValue)
}

func compressFixedRate[F Float](data []F, dims []int, bitsPerValue float64) ([]byte, error) {
	if math.IsNaN(bitsPerValue) || bitsPerValue < MinBitsPerValue || bitsPerValue > MaxBitsPerValue {
		return nil, fmt.Errorf("zfp: bits per value %v outside [%d,%d]",
			bitsPerValue, MinBitsPerValue, MaxBitsPerValue)
	}
	if err := wire.CheckDims("zfp", len(data), dims); err != nil {
		return nil, err
	}
	for i, v := range data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return nil, fmt.Errorf("zfp: non-finite value at %d unsupported in fixed-rate mode", i)
		}
	}
	dim, d0, d1, d2 := wire.Collapse(dims)
	bs := blockSize(dim)
	budget := blockBudgetBits(bitsPerValue, bs)

	w := bitstream.NewWriter(len(data) + 256)
	writeHeader[F](w, ModeFixedRate, dims, bitsPerValue)

	blk := make([]F, bs)
	coef := make([]int64, bs)
	nb := make([]uint64, bs)
	forEachBlock(d0, d1, d2, dim, func(bi, bj, bk int) {
		gatherBlock(data, d0, d1, d2, dim, bi, bj, bk, blk)
		encodeBlockFixedRate(w, blk, coef, nb, dim, budget)
	})
	return w.Bytes(), nil
}

// blockBudgetBits is the whole-bit per-block budget for a rate.
func blockBudgetBits(bitsPerValue float64, blockSize int) int {
	b := int(math.Floor(bitsPerValue * float64(blockSize)))
	if b < emaxBits+1 {
		b = emaxBits + 1
	}
	return b
}

// encodeBlockFixedRate writes exactly `budget` bits. nb is caller-provided
// scratch of block size.
func encodeBlockFixedRate[F Float](w *bitstream.Writer, blk []F, coef []int64, nb []uint64, dim, budget int) {
	tr := traitsFor[F]()
	size := blockSize(dim)
	maxAbs := 0.0
	for _, v := range blk[:size] {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		w.WriteBits(zeroEmax, emaxBits)
		padBits(w, budget-emaxBits)
		return
	}
	_, emax := math.Frexp(maxAbs)
	// Biased so that the reserved zero marker never collides.
	w.WriteBits(uint64(emax+emaxBias), emaxBits)

	scale := math.Ldexp(1, tr.q-emax)
	for i := 0; i < size; i++ {
		coef[i] = int64(math.RoundToEven(float64(blk[i]) * scale))
	}
	fwdTransform(coef, dim)
	perm := permFor(dim)
	nb = nb[:size]
	var all uint64
	for i, p := range perm {
		nb[i] = int2nb(coef[p])
		all |= nb[i]
	}
	kmax := bits.Len64(all)
	if kmax > tr.hi {
		kmax = tr.hi
	}
	// kmax also travels in-band (6 bits) so the decoder skips the same
	// leading planes.
	w.WriteBits(uint64(kmax), 6)
	encodePlanesBudget(w, nb, kmax, budget-emaxBits-6)
}

func padBits(w *bitstream.Writer, n int) {
	for i := 0; i < n; i++ {
		w.WriteBit(0)
	}
}

// encodePlanesBudget runs the group-tested plane coder down from kmax-1,
// spending at most `budget` bits and padding with zeros to exactly fill it.
// The decoder mirrors the control flow bit for bit.
func encodePlanesBudget(w *bitstream.Writer, nb []uint64, kmax, budget int) {
	size := len(nb)
	left := budget
	emit := func(b uint64) bool {
		if left == 0 {
			return false
		}
		left--
		w.WriteBit(uint(b & 1))
		return true
	}
	n := 0
planes:
	for k := kmax - 1; k >= 0 && left > 0; k-- {
		var x uint64
		for i := 0; i < size; i++ {
			x |= ((nb[i] >> uint(k)) & 1) << uint(i)
		}
		for i := 0; i < n; i++ {
			if !emit(x) {
				break planes
			}
			x >>= 1
		}
		for i := n; i < size; {
			if x == 0 {
				if !emit(0) {
					break planes
				}
				break
			}
			if !emit(1) {
				break planes
			}
			for i < size-1 && x&1 == 0 {
				if !emit(0) {
					break planes
				}
				x >>= 1
				i++
			}
			if i < size-1 {
				if !emit(1) {
					break planes
				}
			}
			x >>= 1
			i++
			n = i
		}
	}
	padBits(w, left)
}

// decodePlanesBudget mirrors encodePlanesBudget, always consuming exactly
// `budget` bits from r.
func decodePlanesBudget(r *bitstream.Reader, nb []uint64, kmax, budget int) error {
	size := len(nb)
	for i := range nb {
		nb[i] = 0
	}
	left := budget
	var readErr error
	take := func() (uint, bool) {
		if left == 0 {
			return 0, false
		}
		left--
		b, err := r.ReadBit()
		if err != nil {
			readErr = err
			return 0, false
		}
		return b, true
	}
	n := 0
planes:
	for k := kmax - 1; k >= 0 && left > 0; k-- {
		for i := 0; i < n; i++ {
			b, ok := take()
			if !ok {
				break planes
			}
			nb[i] |= uint64(b) << uint(k)
		}
		for i := n; i < size; {
			g, ok := take()
			if !ok {
				break planes
			}
			if g == 0 {
				break
			}
			for i < size-1 {
				b, ok := take()
				if !ok {
					break planes
				}
				if b == 1 {
					break
				}
				i++
			}
			nb[i] |= 1 << uint(k)
			i++
			n = i
		}
	}
	if readErr != nil {
		return readErr
	}
	// Consume padding.
	for left > 0 {
		if _, err := r.ReadBit(); err != nil {
			return err
		}
		left--
	}
	return nil
}

// decodeBlockFixedRate reads exactly `budget` bits into blk. nb is
// caller-provided scratch of block size.
func decodeBlockFixedRate[F Float](r *bitstream.Reader, blk []F, coef []int64, nb []uint64, dim, budget int) error {
	tr := traitsFor[F]()
	size := blockSize(dim)
	e64, err := r.ReadBits(emaxBits)
	if err != nil {
		return err
	}
	if e64 == zeroEmax {
		for i := 0; i < size; i++ {
			blk[i] = 0
		}
		return skipBits(r, budget-emaxBits)
	}
	emax := int(e64) - emaxBias
	if emax < -1100 || emax > 1100 {
		return ErrCorrupt
	}
	k64, err := r.ReadBits(6)
	if err != nil {
		return err
	}
	kmax := int(k64)
	if kmax > tr.hi {
		return ErrCorrupt
	}
	if err := decodePlanesBudget(r, nb[:size], kmax, budget-emaxBits-6); err != nil {
		return err
	}
	perm := permFor(dim)
	for i, p := range perm {
		coef[p] = nb2int(nb[i])
	}
	invTransform(coef, dim)
	inv := math.Ldexp(1, emax-tr.q)
	for i := 0; i < size; i++ {
		blk[i] = F(float64(coef[i]) * inv)
	}
	return nil
}

func skipBits(r *bitstream.Reader, n int) error {
	for i := 0; i < n; i++ {
		if _, err := r.ReadBit(); err != nil {
			return err
		}
	}
	return nil
}

func decompressFixedRate[F Float](dst []F, buf []byte, h header) ([]F, []int, error) {
	rate := h.param
	if math.IsNaN(rate) || rate < MinBitsPerValue || rate > MaxBitsPerValue {
		return nil, nil, ErrCorrupt
	}
	dim, d0, d1, d2 := wire.Collapse(h.dims)
	bs := blockSize(dim)
	budget := blockBudgetBits(rate, bs)

	// Plausibility: every block consumes exactly budget bits, so the payload
	// must hold the whole block sequence before the output is sized from
	// header-claimed dims.
	nb0, nb1, nb2 := blockGrid(d0, d1, d2, dim)
	payloadBits := uint64(len(buf)-h.payloadOff) * 8
	if uint64(nb0)*uint64(nb1)*uint64(nb2)*uint64(budget) > payloadBits+7 {
		return nil, nil, ErrCorrupt
	}

	r := bitstream.NewReader(buf[h.payloadOff:])
	blk := make([]F, bs)
	coef := make([]int64, bs)
	nb := make([]uint64, bs)
	out := wire.Sized(dst, h.n)
	var derr error
	forEachBlock(d0, d1, d2, dim, func(bi, bj, bk int) {
		if derr != nil {
			return
		}
		if err := decodeBlockFixedRate(r, blk, coef, nb, dim, budget); err != nil {
			derr = err
			return
		}
		scatterBlock(out, d0, d1, d2, dim, bi, bj, bk, blk)
	})
	if derr != nil {
		return nil, nil, derr
	}
	return out, h.dims, nil
}

// FixedRateReader provides random access into a fixed-rate stream: any
// block can be decoded without touching the rest — the property fixed-rate
// mode exists for.
type FixedRateReader struct {
	buf    []byte
	h      header
	dim    int
	bs     int
	budget int
	nb0    int
	nb1    int
	nb2    int
}

// NewFixedRateReader parses the stream header and validates the payload
// size against the block grid.
func NewFixedRateReader(buf []byte) (*FixedRateReader, error) {
	h, err := parseHeader(buf)
	if err != nil {
		return nil, err
	}
	if h.mode != ModeFixedRate {
		return nil, fmt.Errorf("zfp: stream is %v, not fixed-rate", h.mode)
	}
	if h.kind != 32 {
		return nil, fmt.Errorf("zfp: FixedRateReader supports float32 streams; stream holds float%d", h.kind)
	}
	if math.IsNaN(h.param) || h.param < MinBitsPerValue || h.param > MaxBitsPerValue {
		return nil, ErrCorrupt
	}
	fr := &FixedRateReader{buf: buf, h: h}
	dim, d0, d1, d2 := wire.Collapse(h.dims)
	fr.dim = dim
	fr.bs = blockSize(dim)
	fr.budget = blockBudgetBits(h.param, fr.bs)
	fr.nb0, fr.nb1, fr.nb2 = blockGrid(d0, d1, d2, dim)
	need := (len(buf)-h.payloadOff)*8 - fr.NumBlocks()*fr.budget
	if need < 0 {
		return nil, ErrCorrupt
	}
	return fr, nil
}

// NumBlocks is the total number of blocks in the stream.
func (fr *FixedRateReader) NumBlocks() int { return fr.nb0 * fr.nb1 * fr.nb2 }

// DecodeBlock decodes block `idx` (row-major block order) without decoding
// anything else. The returned slice is freshly allocated.
func (fr *FixedRateReader) DecodeBlock(idx int) ([]float32, error) {
	if idx < 0 || idx >= fr.NumBlocks() {
		return nil, fmt.Errorf("zfp: block %d out of range [0,%d)", idx, fr.NumBlocks())
	}
	startBit := idx * fr.budget
	// Seek: byte-align then skip residual bits.
	r := bitstream.NewReader(fr.buf[fr.h.payloadOff+startBit/8:])
	if err := skipBits(r, startBit%8); err != nil {
		return nil, err
	}
	blk := make([]float32, fr.bs)
	coef := make([]int64, fr.bs)
	nb := make([]uint64, fr.bs)
	if err := decodeBlockFixedRate(r, blk, coef, nb, fr.dim, fr.budget); err != nil {
		return nil, err
	}
	return blk, nil
}

// ValueAt decodes the single logical element at the given coordinates
// (len(coords) matching Dims) by decoding only its containing block.
func (fr *FixedRateReader) ValueAt(coords []int) (float32, error) {
	if len(coords) != len(fr.h.dims) {
		return 0, fmt.Errorf("zfp: got %d coords for %d dims", len(coords), len(fr.h.dims))
	}
	for i, c := range coords {
		if c < 0 || c >= fr.h.dims[i] {
			return 0, fmt.Errorf("zfp: coord %d out of range", i)
		}
	}
	// The collapsed (d0,d1,d2) shape the block grid uses keeps row-major
	// order, so the element's offset splits into its collapsed coordinates.
	off := 0
	for i, c := range coords {
		off = off*fr.h.dims[i] + c
	}
	_, _, d1, d2 := wire.Collapse(fr.h.dims)
	i0, j0, k0 := off/(d1*d2), off/d2%d1, off%d2
	bi, oi := i0/blockEdge, i0%blockEdge
	bj, oj := j0/blockEdge, j0%blockEdge
	bk, ok := k0/blockEdge, k0%blockEdge
	idx := (bi*fr.nb1+bj)*fr.nb2 + bk
	blk, err := fr.DecodeBlock(idx)
	if err != nil {
		return 0, err
	}
	switch fr.dim {
	case 1:
		return blk[ok], nil
	case 2:
		return blk[oj*blockEdge+ok], nil
	default:
		return blk[(oi*blockEdge+oj)*blockEdge+ok], nil
	}
}
