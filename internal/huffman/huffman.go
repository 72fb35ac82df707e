// Package huffman implements a canonical Huffman coder over integer symbol
// alphabets. It is the entropy-coding stage for the sz codec's quantization
// codes and the literal/length coder inside the lossless backend.
//
// Build merges the two lightest subtrees of a binary min-heap until one tree
// is left, then canonicalizes its code lengths (codes assigned in (length,
// symbol) order), so that only the lengths need to be stored in a compressed
// stream header. The lengths, and so every stream byte, depend on which of
// equally light subtrees merge first. The heap orders subtrees by (freq,
// depth) — total frequency, then height, the shallower first — and leaves a
// tie between equal keys to heap order: the leaves enter in ascending symbol
// order and are heapified, and each merge pops two subtrees and pushes their
// parent, with the textbook sift moves and a strict less.
//
// Past the one scan of the frequency table that finds the used symbols, every
// step — the heap, canonicalization, the code table, a table's serialized
// form and its parse — costs time in proportion to the symbols a code uses,
// not to its alphabet.
package huffman

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"lcpio/internal/bitstream"
)

// MaxCodeLen is the longest code length the coder will produce. Frequencies
// are flattened if the natural tree would exceed it, which keeps the decode
// table small and bounds worst-case compressed size.
const MaxCodeLen = 32

var (
	// ErrNoSymbols is returned when building a code over an empty alphabet.
	ErrNoSymbols = errors.New("huffman: no symbols with nonzero frequency")
	// ErrFreqTotal is returned when a frequency table sums to 2^57 or more,
	// which Build's packed heap keys cannot hold.
	ErrFreqTotal = errors.New("huffman: frequencies sum to 2^57 or more")
	// ErrBadLengths is returned when a set of code lengths does not describe
	// a valid (complete or over-subscribed-free) prefix code.
	ErrBadLengths = errors.New("huffman: invalid code length set")
	// ErrCorrupt is returned when decoding encounters a code not present in
	// the table.
	ErrCorrupt = errors.New("huffman: corrupt stream")
)

// Code is a canonical Huffman code over symbols [0, NumSymbols).
type Code struct {
	// lens is the code length per symbol, 0 for an unused one, and used lists
	// the symbols whose length is not 0 in ascending order. Only those
	// entries of lens's storage are ever nonzero, so a rebuild clears the
	// previous code's symbols rather than its whole alphabet.
	lens  []uint8
	used  []int32
	codes []uint32 // canonical code per used symbol, MSB-first; encoding only

	// Decoding acceleration: first code and first symbol index per length.
	firstCode  [MaxCodeLen + 2]uint32
	firstSym   [MaxCodeLen + 2]int32
	symsByCode []int32 // symbols sorted by (len, symbol)
	maxLen     uint8

	// Decode tables: indexing lut by the next lutIndexBits bits of the
	// stream yields sym<<8 | len for every code no longer than lutBits =
	// min(lutIndexBits, maxLen), and lutMiss for every other index. Longer
	// codes are resolved against limit: limit[l] is one past the last code
	// of length l, left-aligned to maxLen bits. FromLengths and ReadTableInto
	// build them with the code; a Code from Build builds them on its first
	// decode (lutBits is 0 until then), so it must not be shared between
	// goroutines before that.
	lut     *[1 << lutIndexBits]uint32
	lutBits uint8
	limit   [MaxCodeLen + 1]uint64
}

// resetLens empties c for an alphabet of n symbols: it zeroes the lengths of
// the symbols the previous code used, so lens's storage is all zero, and
// sizes lens to n.
func (c *Code) resetLens(n int) {
	for _, s := range c.used {
		c.lens[s] = 0
	}
	c.used = c.used[:0]
	if cap(c.lens) < n {
		c.lens = make([]uint8, n)
	} else {
		c.lens = c.lens[:n]
	}
}

// depthBits is the width of a heap key's depth field. A Huffman tree whose
// weights sum to W is at most about log_φ W deep (a node at height h weighs
// at least the (h+2)-th Fibonacci number), so under 94 for any uint64 sum and
// under 2^depthBits = 128 with room to spare.
const depthBits = 7

// maxFreqTotal bounds the frequency sum: every subtree's weight, shifted
// left by depthBits, must fit a uint64 key.
const maxFreqTotal = 1 << (64 - depthBits)

// hslot is one heap entry: a subtree's key, freq<<depthBits | depth, whose
// unsigned order is the (freq, depth) order, and its node number.
type hslot struct {
	key  uint64
	node int32
}

// sentinel is the key of the slot past a heap's last entry: heavier than any
// subtree, so a node with one child compares it as if it had two.
const sentinel = ^uint64(0)

// siftDown fills the hole at i with x, moving x down the heap s (whose last
// slot is the sentinel): at each level the lighter child, the left one on a
// tie, rises into the hole while it is strictly lighter than x. These are the
// swaps of the textbook heap with a strict less, so equal keys keep their
// order.
func siftDown(s []hslot, i int, x hslot) {
	n := len(s) - 1
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		// The right child wins only when strictly lighter. Its index and
		// key come from the borrow of kr - kl, not from a branch, which
		// would mispredict about every other level.
		kl, kr := s[l].key, s[l+1].key
		_, right := bits.Sub64(kr, kl, 0)
		c := l + int(right)
		kc := kl + (kr-kl)&-right
		if kc >= x.key {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = x
}

// pop removes the lightest entry from the heap s and returns it with the
// shrunk heap: the last entry fills the root's hole and sifts down.
func pop(s []hslot) (hslot, []hslot) {
	top := s[0]
	n := len(s) - 2 // the last entry, and the heap's size after the pop
	x := s[n]
	s[n] = hslot{key: sentinel}
	s = s[:n+1]
	if n > 0 {
		siftDown(s, 0, x)
	}
	return top, s
}

// push adds x to the heap s, whose capacity must hold one more slot, and
// returns the grown heap: x enters at the end and rises past every parent
// strictly heavier than it.
func push(s []hslot, x hslot) []hslot {
	s = append(s, hslot{key: sentinel})
	i := len(s) - 2
	for i > 0 {
		p := (i - 1) / 2
		if x.key >= s[p].key {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = x
	return s
}

// Build constructs a canonical Huffman code from symbol frequencies.
// freqs[i] is the frequency of symbol i; zero-frequency symbols get no code.
// At least one symbol must have nonzero frequency, and the frequencies must
// sum to less than 2^57 (ErrFreqTotal otherwise); sz partitions and lossless
// inputs stay below 2^31. If exactly one symbol is used it is assigned a
// 1-bit code.
func Build(freqs []uint64) (*Code, error) {
	var b Builder
	return b.Build(freqs)
}

// Builder constructs canonical Huffman codes while reusing the heap, the tree
// scratch, and the resulting Code's tables across calls. The zero value is
// ready to use. A Builder is not safe for concurrent use; the *Code returned
// by Build is only valid until the next Build call on the same Builder.
type Builder struct {
	heap []hslot
	// tree holds one entry per node: leaves 0..u-1 in used order, then each
	// merge's parent in the order made. The merges write each node's parent,
	// which is always a later node; the length pass turns those into depths.
	tree []int32
	code Code
}

// Build is the reusable-scratch equivalent of the package-level Build. The
// returned Code aliases the Builder's internal storage.
func (b *Builder) Build(freqs []uint64) (*Code, error) {
	c := &b.code
	c.resetLens(len(freqs))
	// One scan lists the used symbols, ascending. A partition uses few of
	// sz's 2^16, so the scan passes over eight unused ones at a time.
	var total uint64
	for base := 0; base < len(freqs); base += 8 {
		blk := freqs[base:min(base+8, len(freqs))]
		if len(blk) == 8 && blk[0]|blk[1]|blk[2]|blk[3]|blk[4]|blk[5]|blk[6]|blk[7] == 0 {
			continue
		}
		for j, f := range blk {
			if f != 0 {
				if f >= maxFreqTotal-total {
					return nil, ErrFreqTotal
				}
				total += f
				c.used = append(c.used, int32(base+j))
			}
		}
	}
	switch len(c.used) {
	case 0:
		return nil, ErrNoSymbols
	case 1:
		c.lens[c.used[0]] = 1
	default:
		b.lengths(freqs)
	}
	if err := c.canonicalize(); err != nil {
		return nil, err
	}
	c.assignCodes()
	return c, nil
}

// lengths sets the code length of every used symbol, two or more, from the
// Huffman tree over their frequencies.
func (b *Builder) lengths(freqs []uint64) {
	c := &b.code
	u := len(c.used)
	if cap(b.heap) < u+1 {
		b.heap = make([]hslot, 0, u+1)
	}
	h := b.heap[:0]
	for i, s := range c.used {
		h = append(h, hslot{key: freqs[s] << depthBits, node: int32(i)})
	}
	h = append(h, hslot{key: sentinel})
	for i := u/2 - 1; i >= 0; i-- {
		siftDown(h, i, h[i])
	}

	if cap(b.tree) < 2*u-1 {
		b.tree = make([]int32, 2*u-1)
	}
	tree := b.tree[:2*u-1]
	const depthMask = 1<<depthBits - 1
	for next := int32(u); len(h) > 2; next++ {
		var x, y hslot
		x, h = pop(h)
		y, h = pop(h)
		tree[x.node], tree[y.node] = next, next
		depth := max(x.key&depthMask, y.key&depthMask) + 1
		h = push(h, hslot{key: (x.key&^depthMask + y.key&^depthMask) | depth, node: next})
	}
	b.heap = h

	// Depths from the root down: every parent is a later node, so walking
	// the nodes backwards meets it first, already turned into its depth.
	root := 2*u - 2
	tree[root] = 0
	for i := root - 1; i >= 0; i-- {
		tree[i] = tree[tree[i]] + 1
	}
	overflow := false
	for i, s := range c.used {
		d := tree[i]
		if d > MaxCodeLen {
			overflow = true
			d = MaxCodeLen
		}
		c.lens[s] = uint8(d)
	}
	if overflow {
		flattenLengths(c.lens, c.used)
	}
}

// flattenLengths repairs a length set whose Kraft sum exceeds 1 after
// clamping, by repeatedly lengthening the shortest over-represented codes.
// This mirrors the length-limited repair used by deflate encoders. used lists
// the symbols with a length, ascending.
func flattenLengths(lens []uint8, used []int32) {
	for {
		var kraft uint64 // scaled by 1<<MaxCodeLen
		for _, s := range used {
			kraft += 1 << (MaxCodeLen - lens[s])
		}
		if kraft <= 1<<MaxCodeLen {
			return
		}
		// Lengthen the longest code shorter than MaxCodeLen, the lowest
		// symbol on a tie.
		best := int32(-1)
		for _, s := range used {
			if l := lens[s]; l < MaxCodeLen && (best < 0 || l > lens[best]) {
				best = s
			}
		}
		if best < 0 {
			return // cannot repair; canonicalize will reject
		}
		lens[best]++
	}
}

// FromLengths constructs the canonical code implied by per-symbol code
// lengths (0 meaning the symbol is unused), ready to encode and decode. The
// lengths must satisfy the Kraft inequality.
func FromLengths(lens []uint8) (*Code, error) {
	c := &Code{lens: append([]uint8(nil), lens...)}
	for s, l := range lens {
		if l != 0 {
			c.used = append(c.used, int32(s))
		}
	}
	if err := c.canonicalize(); err != nil {
		return nil, err
	}
	c.assignCodes()
	c.buildDecodeTables()
	return c, nil
}

// canonicalize checks the lengths of the used symbols and sets what both
// directions read from them: the per-length first code and symbol index and
// the symbols in (length, symbol) order. It leaves the encoder's codes to
// assignCodes and the decoder's table to buildDecodeTables.
func (c *Code) canonicalize() error {
	if len(c.lens) > maxTableSyms {
		return ErrBadLengths
	}
	var counts [MaxCodeLen + 2]uint32
	maxLen := uint8(0)
	for _, s := range c.used {
		l := c.lens[s]
		if l > MaxCodeLen {
			return ErrBadLengths
		}
		counts[l]++
		maxLen = max(maxLen, l)
	}
	if len(c.used) == 0 {
		return ErrNoSymbols
	}
	// Kraft check.
	var kraft uint64
	for l := 1; l <= int(maxLen); l++ {
		kraft += uint64(counts[l]) << (MaxCodeLen - l)
	}
	if kraft > 1<<MaxCodeLen {
		return ErrBadLengths
	}

	c.maxLen = maxLen
	c.codes = c.codes[:0]
	c.firstCode = [MaxCodeLen + 2]uint32{}
	c.firstSym = [MaxCodeLen + 2]int32{}
	c.lutBits = 0

	// Canonical first-code per length: codes of length l start where the
	// doubled cumulative count of shorter codes leaves off.
	var code uint32
	for l := uint8(1); l <= c.maxLen; l++ {
		c.firstCode[l] = code
		code = (code + counts[l]) << 1
	}

	// List the symbols in (length, symbol) order. One pass over the used
	// symbols suffices: they ascend, which is the canonical tie-break for a
	// fixed length, so each lands at its length's running slot cursor.
	var symIdx int32
	var slot [MaxCodeLen + 2]int32
	for l := uint8(1); l <= c.maxLen; l++ {
		c.firstSym[l] = symIdx
		slot[l] = symIdx
		symIdx += int32(counts[l])
	}
	c.firstSym[c.maxLen+1] = symIdx
	if cap(c.symsByCode) < int(symIdx) {
		c.symsByCode = make([]int32, symIdx)
	} else {
		c.symsByCode = c.symsByCode[:symIdx]
	}
	for _, s := range c.used {
		l := c.lens[s]
		c.symsByCode[slot[l]] = s
		slot[l]++
	}
	return nil
}

// assignCodes gives every used symbol its canonical code, for encoding: the
// k-th symbol of length l in (length, symbol) order gets firstCode[l] + k.
// The entries of unused symbols keep whatever they held: Encode refuses
// those symbols by their zero length before it reads a code.
func (c *Code) assignCodes() {
	if cap(c.codes) < len(c.lens) {
		c.codes = make([]uint32, len(c.lens))
	} else {
		c.codes = c.codes[:len(c.lens)]
	}
	for l := uint8(1); l <= c.maxLen; l++ {
		for k, s := range c.symsByCode[c.firstSym[l]:c.firstSym[l+1]] {
			c.codes[s] = c.firstCode[l] + uint32(k)
		}
	}
}

// Encode appends the code for symbol s to w. Encoding a symbol with no
// assigned code is a programming error and panics.
func (c *Code) Encode(w *bitstream.Writer, s int) {
	l := c.lens[s]
	if l == 0 {
		panic(fmt.Sprintf("huffman: encode of unused symbol %d", s))
	}
	w.WriteBits(uint64(c.codes[s]), uint(l))
}

// EncodeAll appends the codes for every symbol in syms to w, packing
// consecutive codes into a local 64-bit accumulator so the per-symbol cost is
// a shift and an or rather than a Writer call. The emitted bits are identical
// to calling Encode per symbol: MSB-first concatenation is associative.
func (c *Code) EncodeAll(w *bitstream.Writer, syms []int) {
	var acc uint64
	var nacc uint
	for _, s := range syms {
		l := uint(c.lens[s])
		if l == 0 {
			panic(fmt.Sprintf("huffman: encode of unused symbol %d", s))
		}
		if nacc+l > 64 {
			w.WriteBits(acc, nacc)
			acc, nacc = 0, 0
		}
		acc = acc<<l | uint64(c.codes[s])
		nacc += l
	}
	if nacc > 0 {
		w.WriteBits(acc, nacc)
	}
}

// lutIndexBits sizes the direct-lookup decode table at 2^12 entries (16 KiB),
// covering every code up to 12 bits in one table probe. SZ quantization codes
// concentrate almost all mass on a few hundred symbols around the interval
// radius, so in practice the long-code resolve runs only for deep-tail codes.
// The index width is fixed — a code whose longest length is shorter repeats
// each entry over more indices — so the probe is one shift and no bounds test.
const lutIndexBits = 12

// lutMiss is the table entry for an index no code of at most lutBits bits
// prefixes. Its length field exceeds every window, so the fast path's one
// comparison sends it to the resolve.
const lutMiss = 0xFF

// buildDecodeTables fills lut and limit from the canonical layout. Left-
// aligned to lutIndexBits, the codes of length l continue exactly where those
// of length l-1 end, so the entries fill the table from index 0 in code order,
// and everything past the last code of at most lutBits bits is a miss.
func (c *Code) buildDecodeTables() {
	if c.lut == nil {
		c.lut = new([1 << lutIndexBits]uint32)
	}
	bits := min(uint8(lutIndexBits), c.maxLen)
	c.lutBits = bits
	lut := c.lut
	i := 0
	for l := uint8(1); l <= bits; l++ {
		span := 1 << (lutIndexBits - l)
		for _, sym := range c.symsByCode[c.firstSym[l]:c.firstSym[l+1]] {
			e := uint32(sym)<<8 | uint32(l)
			for end := i + span; i < end; i++ {
				lut[i] = e
			}
		}
	}
	for ; i < len(lut); i++ {
		lut[i] = lutMiss
	}
	for l := uint8(1); l <= c.maxLen; l++ {
		count := uint64(c.firstSym[l+1] - c.firstSym[l])
		c.limit[l] = (uint64(c.firstCode[l]) + count) << (c.maxLen - l)
	}
}

// Decoder reads the symbols of one Code from a bitstream.Reader through the
// reader's bit window, which the caller keeps in locals across a whole loop —
// the way EncodeAll keeps its accumulator — and hands back with Finish:
//
//	d := code.NewDecoder(r)
//	cur, nc := d.Window()
//	for ... {
//		s, cur, nc = d.Next(cur, nc)
//		if s < 0 {
//			s, cur, nc = d.Resolve(cur, nc)
//		}
//		...
//	}
//	err := d.Finish(cur, nc)
//
// Next is the inlined fast path and Resolve the out-of-line rest; the split
// is the inliner's, which will not take a function that makes a call. Several
// Decoders may share one reader and one window. An error is sticky: the
// Resolve that meets it and every later one return -1, and Finish reports it.
type Decoder struct {
	lut *[1 << lutIndexBits]uint32
	c   *Code
	r   *bitstream.Reader
	err error
}

// NewDecoder returns a Decoder for c over r.
func (c *Code) NewDecoder(r *bitstream.Reader) Decoder {
	if c.lutBits == 0 {
		c.buildDecodeTables()
	}
	return Decoder{lut: c.lut, c: c, r: r}
}

// Window returns the reader's window, to start a loop of Next calls from.
func (d *Decoder) Window() (cur uint64, nc uint) { return d.r.Window() }

// Next decodes one symbol from the window (cur, nc) by one probe of the packed
// table and returns it with the window that remains, when the entry's code
// fits in the nc bits the window holds. Otherwise — the window needs a
// refill, or the code is longer than the table's index, or no code has the
// prefix — it returns -1 and the window unchanged, for Resolve.
func (d *Decoder) Next(cur uint64, nc uint) (sym int, _ uint64, _ uint) {
	e := d.lut[cur>>(64-lutIndexBits)]
	if l := uint(e & 0xFF); l <= nc {
		return int(e >> 8), cur << (l & 63), nc - l
	}
	return -1, cur, nc
}

// Resolve decodes the symbol Next could not, out of line: it refills the
// window when it holds fewer bits than the longest code, and matches the code
// there — by the table, or for a code longer than its index by the canonical
// limits. It returns -1 on an error, and from then on: ErrOverrun for a code
// longer than what the stream has left, and for a prefix no code has,
// ErrCorrupt when maxLen real bits were there to look at and ErrOverrun when
// the stream ran out first.
func (d *Decoder) Resolve(cur uint64, nc uint) (sym int, _ uint64, _ uint) {
	if d.err != nil {
		return -1, cur, nc
	}
	maxLen := uint(d.c.maxLen)
	if nc < maxLen {
		cur, nc = d.r.Refill(cur, nc)
	}
	s, l := d.c.match(cur)
	if l != 0 && l <= nc {
		return s, cur << l, nc - l
	}
	d.r.SetWindow(cur, nc)
	if l == 0 && d.r.BitsRemaining() >= int(maxLen) {
		d.err = ErrCorrupt
	} else {
		d.err = bitstream.ErrOverrun
	}
	return -1, cur, nc
}

// Finish hands the window back to the reader and returns the first error a
// Resolve met, if any.
func (d *Decoder) Finish(cur uint64, nc uint) error {
	d.r.SetWindow(cur, nc)
	return d.err
}

// DecodeAll reads len(out) symbols from r into out, rejecting any symbol
// >= max with ErrCorrupt.
func (c *Code) DecodeAll(r *bitstream.Reader, out []int, max int) error {
	d := c.NewDecoder(r)
	cur, nc := d.Window()
	for i := range out {
		var s int
		if s, cur, nc = d.Next(cur, nc); s < 0 {
			s, cur, nc = d.Resolve(cur, nc)
		}
		if s < 0 || s >= max {
			if err := d.Finish(cur, nc); err != nil {
				return err
			}
			return ErrCorrupt
		}
		out[i] = s
	}
	return d.Finish(cur, nc)
}

// match returns the symbol and length of the code that prefixes cur, whose
// bits past the end of the stream are zero, or length 0 when no code does.
// Codes up to lutBits long come from the table; a longer one is resolved from
// cur's top maxLen bits. Canonical codes, left-aligned to maxLen bits, fill
// ascending disjoint ranges in length order, each ending at limit[l]; so the
// code's length is the first l whose limit exceeds that word — the same l the
// per-bit canonical walk stops at.
func (c *Code) match(cur uint64) (int, uint) {
	if e := c.lut[cur>>(64-lutIndexBits)]; e&0xFF != lutMiss {
		return int(e >> 8), uint(e & 0xFF)
	}
	maxLen := uint(c.maxLen)
	v := cur >> (64 - maxLen)
	for l := uint(c.lutBits) + 1; l <= maxLen; l++ {
		if v < c.limit[l] {
			k := uint32(v>>(maxLen-l)) - c.firstCode[l]
			return int(c.symsByCode[uint32(c.firstSym[l])+k]), l
		}
	}
	return 0, 0
}

// WriteTable serializes the code lengths to w so a decoder can reconstruct
// the canonical code. Lengths are run-length encoded: a run of unused symbols
// is a 0 bit and a 16-bit count, at most 65535 to a run, and a used symbol a
// 1 bit and its 6-bit length.
func (c *Code) WriteTable(w *bitstream.Writer) {
	w.WriteBits(uint64(len(c.lens)), 32)
	next := 0
	for _, s := range c.used {
		writeUnusedRun(w, int(s)-next)
		w.WriteBits(1<<6|uint64(c.lens[s]), 7)
		next = int(s) + 1
	}
	writeUnusedRun(w, len(c.lens)-next)
}

// writeUnusedRun writes n unused symbols as the runs WriteTable's format
// allows, each a 0 tag bit and its count in one 17-bit write.
func writeUnusedRun(w *bitstream.Writer, n int) {
	for ; n > 0; n -= 65535 {
		w.WriteBits(uint64(min(n, 65535)), 17)
	}
}

// maxTableSyms is the widest alphabet a code may have, and a serialized
// table may claim: a decode table entry packs the symbol into 24 bits. The
// widest caller, sz, has 2^16 symbols.
const maxTableSyms = 1 << 24

// ReadTableInto reconstructs a Code from a table written by WriteTable into a
// caller-owned Code, so decoders that parse one table per partition reuse
// the table storage across partitions; the parse and the rebuild cost the
// symbols the table uses, not its alphabet. The Code comes back ready to
// decode, with its decode table built, and without the per-symbol codes only
// an encoder reads: it cannot Encode. A table claiming more than maxSyms
// symbols is ErrCorrupt before anything is sized from the claim: the caller
// knows its alphabet, and the storage it keeps across streams must not grow
// to a forged one.
func ReadTableInto(r *bitstream.Reader, c *Code, maxSyms int) error {
	n64, err := r.ReadBits(32)
	if err != nil {
		return err
	}
	n := int(n64)
	if n < 0 || n > min(maxSyms, maxTableSyms) {
		return ErrCorrupt
	}
	c.resetLens(n)
	i := 0
	for i < n {
		tag, err := r.ReadBit()
		if err != nil {
			return err
		}
		if tag == 0 {
			run, err := r.ReadBits(16)
			if err != nil {
				return err
			}
			if int(run) == 0 || i+int(run) > n {
				return ErrCorrupt
			}
			i += int(run)
			continue
		}
		l, err := r.ReadBits(6)
		if err != nil {
			return err
		}
		if l == 0 || l > MaxCodeLen {
			return ErrCorrupt
		}
		c.lens[i] = uint8(l)
		c.used = append(c.used, int32(i))
		i++
	}
	if err := c.canonicalize(); err != nil {
		return err
	}
	c.buildDecodeTables()
	return nil
}

// Histogram counts symbol frequencies over syms for an alphabet of size n.
func Histogram(syms []int, n int) []uint64 {
	freqs := make([]uint64, n)
	HistogramInto(freqs, syms)
	return freqs
}

// HistogramInto zeroes freqs and counts symbol frequencies over syms into it,
// letting hot paths reuse a frequency table across calls.
func HistogramInto(freqs []uint64, syms []int) {
	clear(freqs)
	for _, s := range syms {
		freqs[s]++
	}
}

// sortSymbolsByLen is used in tests to verify canonical ordering.
func (c *Code) sortedSymbols() []int32 {
	out := append([]int32(nil), c.symsByCode...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
