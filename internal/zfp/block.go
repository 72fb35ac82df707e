package zfp

import (
	"math"
	"math/bits"

	"lcpio/internal/bitstream"
)

// Float constrains the element types both precisions of the codec accept.
type Float interface {
	~float32 | ~float64
}

// traits carries the per-precision fixed-point parameters: float64 data
// keeps more fractional bits and therefore more bit planes.
type traits struct {
	q  int // fixed-point scaling: block values scaled to |i| <= 2^q
	hi int // top bit plane after transform gain + negabinary headroom
}

func traitsFor[F Float]() traits {
	var z F
	if _, ok := any(z).(float32); ok {
		return traits{q: 40, hi: 54}
	}
	return traits{q: 52, hi: 62}
}

// emax block-header field: 12 bits, bias 1100, covering the full float64
// exponent range; the value 0 is reserved (fixed-rate zero blocks).
const (
	emaxFieldBits = 12
	emaxBias      = 1100
)

// nbMask is the alternating mask used for two's-complement <-> negabinary
// conversion, as in the reference implementation.
const nbMask = 0xAAAAAAAAAAAAAAAA

func int2nb(x int64) uint64 { return (uint64(x) + nbMask) ^ nbMask }
func nb2int(x uint64) int64 { return int64((x ^ nbMask) - nbMask) }

// fwdLift applies the ZFP lifted decorrelating transform to 4 samples at
// stride s. The right-shifts deliberately drop low-order bits (matching the
// reference codec); the block verifier compensates.
func fwdLift(p []int64, off, s int) {
	x, y, z, w := p[off], p[off+s], p[off+2*s], p[off+3*s]
	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y >> 1
	y -= w >> 1
	p[off], p[off+s], p[off+2*s], p[off+3*s] = x, y, z, w
}

// invLift inverts fwdLift up to the bits lost in its right-shifts.
func invLift(p []int64, off, s int) {
	x, y, z, w := p[off], p[off+s], p[off+2*s], p[off+3*s]
	// step 4 inverse
	y += w >> 1
	w -= y >> 1
	// step 3 inverse: z1 = z2 + x2 ; x1 = 2*x2 - z1
	z += x
	x <<= 1
	x -= z
	// step 2 inverse: y0 = y1 + z1 ; z0 = 2*z1 - y0
	y += z
	z <<= 1
	z -= y
	// step 1 inverse: w0 = w1 + x1 ; x0 = 2*x1 - w0
	w += x
	x <<= 1
	x -= w
	p[off], p[off+s], p[off+2*s], p[off+3*s] = x, y, z, w
}

// fwdTransform decorrelates a 4^dim block along every axis.
func fwdTransform(c []int64, dim int) {
	switch dim {
	case 1:
		fwdLift(c, 0, 1)
	case 2:
		for j := 0; j < 4; j++ { // along x (contiguous)
			fwdLift(c, j*4, 1)
		}
		for k := 0; k < 4; k++ { // along y
			fwdLift(c, k, 4)
		}
	default:
		for i := 0; i < 4; i++ { // along x
			for j := 0; j < 4; j++ {
				fwdLift(c, (i*4+j)*4, 1)
			}
		}
		for i := 0; i < 4; i++ { // along y
			for k := 0; k < 4; k++ {
				fwdLift(c, i*16+k, 4)
			}
		}
		for j := 0; j < 4; j++ { // along z
			for k := 0; k < 4; k++ {
				fwdLift(c, j*4+k, 16)
			}
		}
	}
}

// invTransform reverses fwdTransform (axes in reverse order).
func invTransform(c []int64, dim int) {
	switch dim {
	case 1:
		invLift(c, 0, 1)
	case 2:
		for k := 0; k < 4; k++ {
			invLift(c, k, 4)
		}
		for j := 0; j < 4; j++ {
			invLift(c, j*4, 1)
		}
	default:
		for j := 0; j < 4; j++ {
			for k := 0; k < 4; k++ {
				invLift(c, j*4+k, 16)
			}
		}
		for i := 0; i < 4; i++ {
			for k := 0; k < 4; k++ {
				invLift(c, i*16+k, 4)
			}
		}
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				invLift(c, (i*4+j)*4, 1)
			}
		}
	}
}

// sequency orders coefficients by increasing total frequency (coordinate
// sum), so low-frequency coefficients — which carry most energy — are
// emitted first and become significant at higher bit planes.
var (
	perm1 = buildPerm(1)
	perm2 = buildPerm(2)
	perm3 = buildPerm(3)
)

func permFor(dim int) []int {
	switch dim {
	case 1:
		return perm1
	case 2:
		return perm2
	default:
		return perm3
	}
}

func buildPerm(dim int) []int {
	n := blockSize(dim)
	type entry struct{ idx, key int }
	entries := make([]entry, n)
	for idx := 0; idx < n; idx++ {
		var i, j, k int
		switch dim {
		case 1:
			k = idx
		case 2:
			j, k = idx/4, idx%4
		default:
			i, j, k = idx/16, (idx/4)%4, idx%4
		}
		entries[idx] = entry{idx: idx, key: (i+j+k)<<6 | idx&63}
	}
	// Insertion sort by key: n <= 64 and this runs once at init.
	for a := 1; a < n; a++ {
		e := entries[a]
		b := a - 1
		for b >= 0 && entries[b].key > e.key {
			entries[b+1] = entries[b]
			b--
		}
		entries[b+1] = e
	}
	out := make([]int, n)
	for a, e := range entries {
		out[a] = e.idx
	}
	return out
}

// encodeBlock writes the block held in ln.blk; all working buffers live in
// ln so the hot path is allocation-free.
//
// Quantization, the forward transform and the negabinary mapping run exactly
// once per block: a retry only moves the plane cutoff, which is applied to
// the already-computed negabinary words as a mask (see verifyCutoff), so the
// expensive per-retry work of the old encode/decode/re-encode loop is gone
// and each block's planes are emitted a single time.
func encodeBlock[F Float](w *bitstream.Writer, ln *zlane[F], dim int, eb float64) {
	tr := traitsFor[F]()
	size := blockSize(dim)
	blk := ln.blk

	maxAbs := 0.0
	finite := true
	for _, v := range blk[:size] {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			finite = false
			break
		}
		if a := math.Abs(f); a > maxAbs {
			maxAbs = a
		}
	}
	if !finite {
		writeRawBlock(w, blk[:size])
		return
	}
	if maxAbs == 0 {
		w.WriteBits(tagZero, 2)
		return
	}
	// maxAbs < 2^emax with frexp: maxAbs = f * 2^e, f in [0.5, 1).
	_, emax := math.Frexp(maxAbs)

	coef := ln.coef
	scale := math.Ldexp(1, tr.q-emax)
	for i := 0; i < size; i++ {
		coef[i] = int64(math.RoundToEven(float64(blk[i]) * scale))
	}
	fwdTransform(coef, dim)
	perm := permFor(dim)
	nb := ln.nb
	var all uint64
	for i, p := range perm {
		nb[i] = int2nb(coef[p])
		all |= nb[i]
	}
	// Skip leading all-zero planes: kmax is the bit length of the largest
	// coefficient, stored per block so the decoder starts at the same plane.
	kmaxFull := bits.Len64(all)
	if kmaxFull > tr.hi {
		kmaxFull = tr.hi
	}

	// Seed the plane cutoff from the tolerance: a coefficient error below
	// 2^kmin in fixed point is eb' = 2^(kmin + emax - q) in value units.
	// One guard bit absorbs typical transform gain; the verify-and-retry
	// loop below catches the rare block that needs more planes, which is
	// cheaper overall than padding every block conservatively.
	const guard = 1
	kmin := int(math.Floor(math.Log2(eb))) + tr.q - emax - guard
	if kmin < 0 {
		kmin = 0
	}
	if kmin >= tr.hi {
		kmin = tr.hi - 1
	}

	for {
		kmax := kmaxFull
		if kmax < kmin {
			kmax = kmin
		}
		if verifyCutoff(ln, dim, eb, emax, kmin, kmax, tr) {
			w.WriteBits(tagCoded, 2)
			w.WriteBits(uint64(emax+emaxBias), emaxFieldBits)
			w.WriteBits(uint64(kmin), 6)
			w.WriteBits(uint64(kmax), 6)
			encodePlanes(w, nb[:size], kmin, kmax)
			return
		}
		if kmin == 0 {
			writeRawBlock(w, blk[:size])
			return
		}
		kmin -= 3
		if kmin < 0 {
			kmin = 0
		}
	}
}

// verifyCutoff reports whether planes kmax-1..kmin reconstruct ln.blk within
// eb, without round-tripping through the bitstream. The group-tested coder is
// lossless on the planes it transmits — the decoder recovers exactly
// nb[i] & planeMask — so masking the negabinary words reproduces the decoder's
// coefficients directly. The comparison goes through the same cast to F the
// decoder's store does: for float32 that rounding moves the value by up to
// half an ULP, which decides the bound when the tolerance is near an ULP of
// the block's magnitude.
func verifyCutoff[F Float](ln *zlane[F], dim int, eb float64, emax, kmin, kmax int, tr traits) bool {
	size := blockSize(dim)
	// kmax <= tr.hi <= 62, so the shifts stay in range.
	mask := (uint64(1)<<uint(kmax) - 1) &^ (uint64(1)<<uint(kmin) - 1)
	perm := permFor(dim)
	nb, dcoef := ln.nb, ln.dcoef
	for i, p := range perm {
		dcoef[p] = nb2int(nb[i] & mask)
	}
	invTransform(dcoef, dim)
	inv := math.Ldexp(1, emax-tr.q)
	blk := ln.blk
	for i := 0; i < size; i++ {
		if math.Abs(float64(F(float64(dcoef[i])*inv))-float64(blk[i])) > eb {
			return false
		}
	}
	return true
}

func writeRawBlock[F Float](w *bitstream.Writer, blk []F) {
	w.WriteBits(tagRaw, 2)
	for _, v := range blk {
		switch x := any(v).(type) {
		case float32:
			w.WriteBits(uint64(math.Float32bits(x)), 32)
		default:
			w.WriteBits(math.Float64bits(any(v).(float64)), 64)
		}
	}
}

func readRawValue[F Float](r *bitstream.Reader) (F, error) {
	var z F
	if _, ok := any(z).(float32); ok {
		v, err := r.ReadBits(32)
		if err != nil {
			return 0, err
		}
		return F(math.Float32frombits(uint32(v))), nil
	}
	v, err := r.ReadBits(64)
	if err != nil {
		return 0, err
	}
	return F(math.Float64frombits(v)), nil
}

// transpose64 transposes a 64x64 bit matrix in place, LSB-first on both
// axes: on return, bit c of word r equals bit r of the original word c.
// The recursive block-swap runs in 6 rounds of 32 masked exchanges instead
// of 4096 single-bit gathers. The function is an involution.
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j, m = j>>1, m^(m<<uint(j>>1)) {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & m
			a[k] ^= t << uint(j)
			a[k+j] ^= t
		}
	}
}

// gatherPlanes fills planes[k], for k in [kmin, kmax), with the k-th bit
// plane of nb: bit i of planes[k] is bit k of nb[i]. Full 64-coefficient
// blocks use the O(64 log 64) word transpose; smaller blocks gather the
// needed planes directly.
func gatherPlanes(planes *[64]uint64, nb []uint64, kmin, kmax int) {
	if len(nb) == 64 {
		copy(planes[:], nb)
		transpose64(planes)
		return
	}
	for k := kmax - 1; k >= kmin; k-- {
		var x uint64
		for i, v := range nb {
			x |= ((v >> uint(k)) & 1) << uint(i)
		}
		planes[k] = x
	}
}

// encodePlanes emits bit planes kmax-1 .. kmin of the negabinary
// coefficients using ZFP's group-tested embedded coding: within each plane,
// the bits of already-significant coefficients are sent raw, then the
// remainder is run-length coded, growing the significant set.
//
// The plane words come from gatherPlanes, and both the raw prefix and each
// group-test run are emitted as single multi-bit writes; the bit sequence is
// identical to the historical bit-at-a-time coder, so streams are unchanged.
func encodePlanes(w *bitstream.Writer, nb []uint64, kmin, kmax int) {
	size := len(nb)
	var planes [64]uint64
	gatherPlanes(&planes, nb, kmin, kmax)
	n := 0
	for k := kmax - 1; k >= kmin; k-- {
		x := planes[k]
		// Raw bits for the first n (known-significant) coefficients,
		// sent LSB-first: reverse so one WriteBits call matches n
		// WriteBit(x&1); x >>= 1 iterations.
		if n > 0 {
			w.WriteBits(bits.Reverse64(x)>>(64-uint(n)), uint(n))
			x >>= uint(n)
		}
		// Group-tested remainder: each run of t insignificant
		// coefficients followed by a newly-significant one is the bit
		// string "1 0^t 1" — or "1 0^t" when the run ends at the last
		// slot, whose set bit is carried by the group bit itself.
		for i := n; i < size; {
			if x == 0 {
				w.WriteBit(0)
				break
			}
			t := bits.TrailingZeros64(x)
			if i+t < size-1 {
				w.WriteBits(uint64(1)<<uint(t+1)|1, uint(t+2))
				x >>= uint(t + 1)
				i += t + 1
			} else {
				w.WriteBits(uint64(1)<<uint(t), uint(t+1))
				i = size
			}
			n = i
		}
	}
}

// decodePlanes mirrors encodePlanes word for word. A 64-coefficient block is
// rebuilt as one plane word per bit plane — the raw prefix reversed out of a
// single read, each group-test run located with one LeadingZeros64 — held in
// nb itself (plane k in nb[k]) until a single transpose64 turns the planes
// back into coefficients, the way gatherPlanes made them. The 4- and
// 16-coefficient blocks have too few columns to pay for a transpose (or for
// clearing 64 words): they decode their runs the same way and drop each bit
// straight into its coefficient.
func decodePlanes(r *bitstream.Reader, nb []uint64, kmin, kmax int) error {
	size := len(nb)
	if size != 64 {
		return decodePlanesSmall(r, nb, kmin, kmax)
	}
	// Every word outside [kmin, kmax) must be an empty plane for the
	// transpose; the ones inside are all assigned below.
	clear(nb[:kmin])
	clear(nb[kmax:])
	n := 0
	for k := kmax - 1; k >= kmin; k-- {
		var x uint64
		// Bit n-1 of the raw prefix was written first and belongs to
		// coefficient 0: reversed, it is the low n bits of the plane word.
		if n > 0 {
			v, err := r.ReadBits(uint(n))
			if err != nil {
				return err
			}
			x = bits.Reverse64(v) >> (64 - uint(n))
		}
		for n < size {
			i, err := decodeRun(r, n, size)
			if err != nil {
				return err
			}
			if i < 0 {
				break
			}
			x |= 1 << uint(i)
			n = i + 1
		}
		nb[k] = x
	}
	transpose64((*[64]uint64)(nb))
	return nil
}

func decodePlanesSmall(r *bitstream.Reader, nb []uint64, kmin, kmax int) error {
	size := len(nb)
	clear(nb)
	n := 0
	for k := kmax - 1; k >= kmin; k-- {
		bit := uint64(1) << uint(k)
		if n > 0 {
			// n <= 16 here, so the prefix is one peek; Skip reports a
			// prefix the stream does not hold.
			v := r.Peek(uint(n))
			if err := r.Skip(uint(n)); err != nil {
				return err
			}
			for i := n - 1; i >= 0; i-- {
				nb[i] |= bit & -(v & 1)
				v >>= 1
			}
		}
		for n < size {
			i, err := decodeRun(r, n, size)
			if err != nil {
				return err
			}
			if i < 0 {
				break
			}
			nb[i] |= bit
			n = i + 1
		}
	}
	return nil
}

// decodeRun reads one group test of a plane whose coefficients before i are
// already decided: a zero group bit (no coefficient from i on is set in this
// plane) returns -1; otherwise the run "1 0^t 1" — or "1 0^t" when it reaches
// the last slot, whose set bit the group bit already announced — returns
// i+t, the coefficient that just became significant.
//
// The run is measured on peeked bits, as many as it can span. Peek zero-pads
// past the end of the stream, so padding can only lengthen a run of zeros,
// never supply its terminating one; every bit the answer rests on is then
// consumed by Skip, which reports the overrun. A truncated stream therefore
// ends in ErrOverrun, never in a fabricated coefficient.
func decodeRun(r *bitstream.Reader, i, size int) (int, error) {
	span := uint(size - i + 1) // group bit, at most size-1-i zeros, terminator
	if span > bitstream.MaxPeek {
		span = bitstream.MaxPeek
	}
	w := r.Peek(span) << (64 - span)
	if w>>63 == 0 {
		return -1, r.Skip(1)
	}
	w <<= 1
	used, avail := uint(1), span-1
	for {
		t := uint(bits.LeadingZeros64(w))
		m := uint(size - 1 - i) // zeros that would reach the last slot
		if t < m && t < avail {
			used += t + 1
			i += int(t)
			break
		}
		if m <= avail {
			used += m
			i += int(m)
			break
		}
		// Nothing but zeros so far and the run goes on: take them and
		// peek again.
		if err := r.Skip(used + avail); err != nil {
			return 0, err
		}
		i += int(avail)
		used, avail = 0, bitstream.MaxPeek
		w = r.Peek(avail) << (64 - avail)
	}
	return i, r.Skip(used)
}

// decodeBlock reads one block into blk. nb is caller-provided negabinary
// scratch of block size, reused across calls.
func decodeBlock[F Float](r *bitstream.Reader, blk []F, coef []int64, nb []uint64, dim int) error {
	tr := traitsFor[F]()
	size := blockSize(dim)
	tag, err := r.ReadBits(2)
	if err != nil {
		return err
	}
	switch tag {
	case tagZero:
		for i := 0; i < size; i++ {
			blk[i] = 0
		}
		return nil
	case tagRaw:
		for i := 0; i < size; i++ {
			v, err := readRawValue[F](r)
			if err != nil {
				return err
			}
			blk[i] = v
		}
		return nil
	case tagCoded:
		e64, err := r.ReadBits(emaxFieldBits)
		if err != nil {
			return err
		}
		emax := int(e64) - emaxBias
		k64, err := r.ReadBits(6)
		if err != nil {
			return err
		}
		kmin := int(k64)
		kx64, err := r.ReadBits(6)
		if err != nil {
			return err
		}
		kmax := int(kx64)
		if kmin >= tr.hi || kmax > tr.hi || kmax < kmin {
			return ErrCorrupt
		}
		if err := decodePlanes(r, nb[:size], kmin, kmax); err != nil {
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
	default:
		return ErrCorrupt
	}
}
