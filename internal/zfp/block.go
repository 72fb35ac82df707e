package zfp

import (
	"math"
	"math/bits"

	"lcpio/internal/bitstream"
)

// The fixed-point parameters: block values are scaled to |i| <= 2^qBits,
// and hiPlane is the top bit plane after transform gain and negabinary
// headroom.
const (
	qBits   = 40
	hiPlane = 54
)

// emax block-header field: 12 bits, bias 1100, wide enough for any float64
// exponent, so it covers every block peak with room to spare.
const (
	emaxFieldBits = 12
	emaxBias      = 1100
)

// nbMask is the alternating mask used for two's-complement <-> negabinary
// conversion, as in the reference implementation.
const nbMask = 0xAAAAAAAAAAAAAAAA

func int2nb(x int64) uint64 { return (uint64(x) + nbMask) ^ nbMask }
func nb2int(x uint64) int64 { return int64((x ^ nbMask) - nbMask) }

// lift applies the ZFP lifted decorrelating transform to four samples. The
// right-shifts deliberately drop low-order bits (matching the reference
// codec); the block verifier compensates. It works on values so the compiler
// inlines it into the transforms below and the samples stay in registers.
func lift(x, y, z, w int64) (int64, int64, int64, int64) {
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
	return x, y, z, w
}

// unlift inverts lift up to the bits lost in its right-shifts.
func unlift(x, y, z, w int64) (int64, int64, int64, int64) {
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
	return x, y, z, w
}

// fwdTransform decorrelates a 4^dim block along every axis. The slice is
// converted once to the block's fixed-size array, so the passes below index
// without bounds checks.
func fwdTransform(c []int64, dim int) {
	switch dim {
	case 1:
		c := (*[4]int64)(c)
		c[0], c[1], c[2], c[3] = lift(c[0], c[1], c[2], c[3])
	case 2:
		c := (*[16]int64)(c)
		for o := 0; o < 16; o += 4 { // along x (contiguous)
			c[o], c[o+1], c[o+2], c[o+3] = lift(c[o], c[o+1], c[o+2], c[o+3])
		}
		for k := 0; k < 4; k++ { // along y
			c[k], c[k+4], c[k+8], c[k+12] = lift(c[k], c[k+4], c[k+8], c[k+12])
		}
	default:
		c := (*[64]int64)(c)
		for o := 0; o < 64; o += 4 { // along x
			c[o], c[o+1], c[o+2], c[o+3] = lift(c[o], c[o+1], c[o+2], c[o+3])
		}
		for i := 0; i < 64; i += 16 { // along y
			for k := i; k < i+4; k++ {
				c[k], c[k+4], c[k+8], c[k+12] = lift(c[k], c[k+4], c[k+8], c[k+12])
			}
		}
		for k := 0; k < 16; k++ { // along z
			c[k], c[k+16], c[k+32], c[k+48] = lift(c[k], c[k+16], c[k+32], c[k+48])
		}
	}
}

// invTransform reverses fwdTransform (axes in reverse order).
func invTransform(c []int64, dim int) {
	switch dim {
	case 1:
		c := (*[4]int64)(c)
		c[0], c[1], c[2], c[3] = unlift(c[0], c[1], c[2], c[3])
	case 2:
		c := (*[16]int64)(c)
		for k := 0; k < 4; k++ {
			c[k], c[k+4], c[k+8], c[k+12] = unlift(c[k], c[k+4], c[k+8], c[k+12])
		}
		for o := 0; o < 16; o += 4 {
			c[o], c[o+1], c[o+2], c[o+3] = unlift(c[o], c[o+1], c[o+2], c[o+3])
		}
	default:
		c := (*[64]int64)(c)
		for k := 0; k < 16; k++ {
			c[k], c[k+16], c[k+32], c[k+48] = unlift(c[k], c[k+16], c[k+32], c[k+48])
		}
		for i := 0; i < 64; i += 16 {
			for k := i; k < i+4; k++ {
				c[k], c[k+4], c[k+8], c[k+12] = unlift(c[k], c[k+4], c[k+8], c[k+12])
			}
		}
		for o := 0; o < 64; o += 4 {
			c[o], c[o+1], c[o+2], c[o+3] = unlift(c[o], c[o+1], c[o+2], c[o+3])
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

// cutoff is what one compress call fixes for all of its blocks: the tolerance,
// the plane the cutoff search starts from, and the largest error at which a
// passing cutoff still tries the plane above it.
type cutoff struct {
	eb     float64
	ebLog2 int // floor(log2(eb))
	climb  float64
}

// climbShare of the tolerance is co.climb. Dropping a plane roughly doubles
// a block's error, which puts the textbook threshold at one half; measured
// there, the plane above still passed for 40–55 % of NYX blocks that ended
// between 0.5 and 0.75 of the tolerance, and for 20–30 % of
// Hurricane-ISABEL ones. DESIGN §5i "Cutoff search" has the trade that set
// it at 0.6.
const climbShare = 0.6

func cutoffFor(eb float64) cutoff {
	return cutoff{eb: eb, ebLog2: int(math.Floor(math.Log2(eb))), climb: climbShare * eb}
}

// seedOff is the offset below the tolerance's plane at which a lane searches
// its first block of a shard, by block dimensionality: later blocks start
// where the previous one ended. Shard starts depend only on the array shape,
// so the bytes do not depend on the worker count.
var seedOff = [4]int{1: 1, 2: 1, 3: 2}

// maxAbs returns the largest magnitude in blk and whether every value is
// finite, in one pass over the bit patterns: with the sign cleared, IEEE
// patterns order like the magnitudes they encode, and every infinity and NaN
// sorts at or above the infinity pattern.
func maxAbs(blk []float32) (float64, bool) {
	const inf = 0x7FF << 52
	var m uint64
	for _, v := range blk {
		m = max(m, math.Float64bits(float64(v))&^(1<<63))
	}
	return math.Float64frombits(m), m < inf
}

// encodeBlock writes the block held in ln.blk; all working buffers live in
// ln so the hot path is allocation-free.
//
// Quantization, the forward transform and the negabinary mapping run exactly
// once per block: trying another cutoff only moves the plane mask applied to
// the already-computed negabinary words (see verifyCutoff), and the block's
// planes are emitted a single time, at the cutoff the search settles on.
func encodeBlock(w *bitstream.Writer, ln *zlane, dim int, co cutoff) {
	size := blockSize(dim)
	blk := ln.blk[:size]

	peak, finite := maxAbs(blk)
	if !finite {
		writeRawBlock(w, blk)
		return
	}
	if peak == 0 {
		w.WriteBits(tagZero, 2)
		return
	}
	// peak < 2^emax with frexp: peak = f * 2^e, f in [0.5, 1).
	_, emax := math.Frexp(peak)

	// Lane scratch is indexed as arrays (perm entries and block offsets are
	// all below 64), sliced only where a callee wants the block's length.
	coef, nb := &ln.coef, &ln.nb
	scale, inv := math.Ldexp(1, qBits-emax), math.Ldexp(1, emax-qBits)
	for i, v := range blk {
		coef[i&63] = int64(math.RoundToEven(float64(v) * scale))
	}
	fwdTransform(coef[:size], dim)
	var all uint64
	for i, p := range permFor(dim) {
		v := int2nb(coef[p&63])
		nb[i&63] = v
		all |= v
	}
	// Skip leading all-zero planes: kmax is the bit length of the largest
	// coefficient, stored per block so the decoder starts at the same plane.
	kmaxFull := bits.Len64(all)
	if kmaxFull > hiPlane {
		kmaxFull = hiPlane
	}

	// Search for the block's tightest verified cutoff. A coefficient error
	// below 2^k in fixed point is 2^(k + emax - qBits) in value units, so k0
	// is the tolerance's plane before transform gain; the search starts
	// ln.off planes below it. A failed verification steps one plane down,
	// until a cutoff passes or plane 0 fails and the block is stored raw. A
	// pass whose largest error is within co.climb tries the plane above, and
	// keeps it if it passes too. Only the choice of cutoffs to try depends on
	// the seed: every cutoff emitted has passed verifyCutoff.
	k0 := co.ebLog2 + qBits - emax
	kmin := min(max(k0-ln.off, 0), hiPlane-1)
	e, ok := ln.verify(dim, co.eb, inv, kmin, kmaxFull)
	if ok {
		// Above kmaxFull no plane is left to drop.
		for e <= co.climb && kmin < kmaxFull && kmin+1 < hiPlane {
			e1, ok1 := ln.verify(dim, co.eb, inv, kmin+1, kmaxFull)
			if !ok1 {
				break
			}
			kmin, e = kmin+1, e1
		}
	}
	for !ok {
		if kmin == 0 {
			writeRawBlock(w, blk)
			return
		}
		kmin--
		e, ok = ln.verify(dim, co.eb, inv, kmin, kmaxFull)
	}
	// A block that codes no planes passes at any cutoff above its
	// coefficients and says nothing about where the next one will.
	if kmin < kmaxFull {
		ln.off = k0 - kmin
	}
	kmax := max(kmaxFull, kmin)
	w.WriteBits(tagCoded, 2)
	w.WriteBits(uint64(emax+emaxBias), emaxFieldBits)
	w.WriteBits(uint64(kmin), 6)
	w.WriteBits(uint64(kmax), 6)
	encodePlanes(w, nb[:size], kmin, kmax)
	ln.planes += int64(kmax - kmin)
}

// verify counts and runs one cutoff verification of the block in ln, its
// window planes max(kmaxFull, kmin)-1 .. kmin.
func (ln *zlane) verify(dim int, eb, inv float64, kmin, kmaxFull int) (float64, bool) {
	ln.verifies++
	return verifyCutoff(ln, dim, eb, inv, kmin, max(kmaxFull, kmin))
}

// verifyCutoff reports whether planes kmax-1..kmin reconstruct ln.blk within
// eb, and an error it saw — on a pass the block's largest, on a failure the
// first past eb — without round-tripping through the bitstream. The
// group-tested coder is lossless on the planes it transmits — the decoder
// recovers exactly nb[i] & planeMask — so masking the negabinary words
// reproduces the decoder's coefficients directly. The comparison goes through the same cast to float32
// the decoder's store does: that rounding moves the value by up to half an
// ULP, which decides the bound when the tolerance is near an ULP of the
// block's magnitude.
//
// inv is 2^(emax - qBits), the block's fixed-point unit in value units.
func verifyCutoff(ln *zlane, dim int, eb, inv float64, kmin, kmax int) (float64, bool) {
	size := blockSize(dim)
	// kmax <= hiPlane < 64, so the shifts stay in range.
	mask := (uint64(1)<<uint(kmax) - 1) &^ (uint64(1)<<uint(kmin) - 1)
	nb, dcoef, blk := &ln.nb, &ln.dcoef, &ln.blk
	for i, p := range permFor(dim) {
		dcoef[p&63] = nb2int(nb[i&63] & mask)
	}
	invTransform(dcoef[:size], dim)
	m := 0.0
	for i, c := range dcoef[:size] {
		e := math.Abs(float64(float32(float64(c)*inv)) - float64(blk[i&63]))
		if e > eb {
			return e, false
		}
		if e > m {
			m = e
		}
	}
	return m, true
}

func writeRawBlock(w *bitstream.Writer, blk []float32) {
	w.WriteBits(tagRaw, 2)
	for _, v := range blk {
		w.WriteBits(uint64(math.Float32bits(v)), 32)
	}
}

// swapRound is one round of the recursive block-swap transpose on the rows
// of a: it exchanges the upper j bits of every 2j-bit lane of row k with the
// lower j bits of the same lane of row k+j, m selecting the lower halves.
// Inlined with constant j and m, its shifts are immediates.
func swapRound(a []uint64, j int, m uint64) {
	for k := 0; k+j < len(a); k = (k + j + 1) &^ j {
		x, y := a[k], a[k+j]
		t := (x>>uint(j) ^ y) & m
		a[k], a[k+j] = x^t<<uint(j), y^t
	}
}

// transposeWindow transposes the bit matrix whose rows are src, LSB-first,
// restricted to the cols columns from bit `from` up, into dst, placed from
// bit `to` up: bit to+r of dst[c] is bit from+c of src[r], for r < len(src)
// and c < cols, and dst[c] has no other bit set. The plane coder's two
// directions are its two uses: coefficients to plane words (from = kmin, the
// live planes only) and plane words back to coefficients (to = kmin). dst
// doubles as the working rows and must hold cols rounded up to a power of
// two; what it held is overwritten.
//
// A transpose exchanges bit b of the row index with bit b of the column
// index, for each b, and the six exchanges commute. Where both bits vary the
// exchange is the classic masked block swap of rows k and k+2^b. Where only
// the row bit varies (the window has no column with bit b set) the swap's
// upper halves are known empty and it degenerates to a pack, a[k] |=
// a[k+2^b] << 2^b, which halves the live rows; where only the column bit
// varies it is the reverse, an unpack that doubles them. All packs happen as
// the rows are loaded and all unpacks as they are stored — one rotate and
// one mask per word either way — so the swaps in between see the fewest
// rows: 64 coefficients by 12 live planes load into 16 words and take four
// rounds of 8 swaps instead of six rounds of 32, while a full 64 x 64 matrix
// has nothing to pack and takes all six.
func transposeWindow(dst, src []uint64, cols int, from, to uint) {
	rows := len(src)
	sb := min(bits.Len(uint(rows-1)), bits.Len(uint(cols-1)))
	n := 1 << uint(sb)
	a := dst[:n]
	clear(a)
	// Rows lo..lo+n-1 land in lane lo/n of the n working rows.
	window := ^uint64(0) >> uint(64-cols)
	for lo := 0; lo < rows; lo += n {
		rot, m := lo-int(from), window<<uint(lo)
		in := src[lo:min(lo+n, rows)]
		for r, v := range a[:len(in)] {
			a[r] = v | bits.RotateLeft64(in[r], rot)&m
		}
	}
	switch sb {
	case 6:
		swapRound(a, 32, 0x00000000FFFFFFFF)
		fallthrough
	case 5:
		swapRound(a, 16, 0x0000FFFF0000FFFF)
		fallthrough
	case 4:
		swapRound(a, 8, 0x00FF00FF00FF00FF)
		fallthrough
	case 3:
		swapRound(a, 4, 0x0F0F0F0F0F0F0F0F)
		fallthrough
	case 2:
		swapRound(a, 2, 0x3333333333333333)
		fallthrough
	case 1:
		swapRound(a, 1, 0x5555555555555555)
	}
	// Output rows lo..lo+n-1 are lane lo/n of the working rows (the whole
	// word when rows were packed). Going down, the working rows are read
	// for the last time when they are themselves stored.
	lane := ^uint64(0) >> uint(64-max(n, rows)) << (to & 63)
	for lo := (cols - 1) &^ (n - 1); lo >= 0; lo -= n {
		rot := int(to) - lo
		out := dst[lo:min(lo+n, cols)]
		for r, v := range a[:len(out)] {
			out[r] = bits.RotateLeft64(v, rot) & lane
		}
	}
}

// encodePlanes emits bit planes kmax-1 .. kmin of the negabinary
// coefficients using ZFP's group-tested embedded coding: within each plane,
// the bits of already-significant coefficients are sent raw, then the
// remainder is run-length coded, growing the significant set.
//
// The plane words — bit i of plane k is bit k of nb[i] — come from one
// windowed transpose of the live planes only, and both the raw prefix and
// each group-test run are emitted as single multi-bit writes; the bit
// sequence is identical to the historical bit-at-a-time coder, so streams
// are unchanged.
func encodePlanes(w *bitstream.Writer, nb []uint64, kmin, kmax int) {
	if kmax <= kmin {
		return
	}
	size := len(nb)
	var planes [64]uint64
	transposeWindow(planes[:], nb, kmax-kmin, uint(kmin), 0)
	n := 0
	for k := kmax - kmin - 1; k >= 0; k-- {
		x := planes[k&63]
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
// single read, each group-test run located with one LeadingZeros64 — and one
// windowed transpose of the planes the stream carries turns them back into
// coefficients, the way encodePlanes made them. The 4- and 16-coefficient
// blocks have too few columns to pay for plane words: they decode their runs
// the same way and drop each bit straight into its coefficient. On success
// every word of nb is written.
func decodePlanes(r *bitstream.Reader, nb []uint64, kmin, kmax int) error {
	size := len(nb)
	if size != 64 {
		return decodePlanesSmall(r, nb, kmin, kmax)
	}
	if kmax <= kmin {
		clear(nb)
		return nil
	}
	var planes [64]uint64
	n := 0
	for k := kmax - kmin - 1; k >= 0; k-- {
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
		planes[k&63] = x
	}
	transposeWindow(nb, planes[:kmax-kmin], size, 0, uint(kmin))
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

// decodeBlock reads one block into ln.blk; the working buffers live in ln.
func decodeBlock(r *bitstream.Reader, ln *zdecLane, dim int) error {
	size := blockSize(dim)
	blk := ln.blk[:size]
	tag, err := r.ReadBits(2)
	if err != nil {
		return err
	}
	switch tag {
	case tagZero:
		clear(blk)
		return nil
	case tagRaw:
		for i := range blk {
			v, err := r.ReadBits(32)
			if err != nil {
				return err
			}
			blk[i] = math.Float32frombits(uint32(v))
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
		if kmin >= hiPlane || kmax > hiPlane || kmax < kmin {
			return ErrCorrupt
		}
		nb, coef := &ln.nb, &ln.coef
		if err := decodePlanes(r, nb[:size], kmin, kmax); err != nil {
			return err
		}
		for i, p := range permFor(dim) {
			coef[p&63] = nb2int(nb[i&63])
		}
		invTransform(coef[:size], dim)
		inv := math.Ldexp(1, emax-qBits)
		for i, c := range coef[:size] {
			blk[i] = float32(float64(c) * inv)
		}
		return nil
	default:
		return ErrCorrupt
	}
}
