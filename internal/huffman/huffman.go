// Package huffman implements a canonical Huffman coder over integer symbol
// alphabets. It is the entropy-coding stage for the sz codec's quantization
// codes and the literal/length coder inside the lossless backend.
//
// Code construction uses the standard two-queue algorithm over a heap of
// symbol frequencies, followed by canonicalization (codes assigned in
// (length, symbol) order) so that only the code lengths need to be stored in
// a compressed stream header.
package huffman

import (
	"errors"
	"fmt"
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
	// ErrBadLengths is returned when a set of code lengths does not describe
	// a valid (complete or over-subscribed-free) prefix code.
	ErrBadLengths = errors.New("huffman: invalid code length set")
	// ErrCorrupt is returned when decoding encounters a code not present in
	// the table.
	ErrCorrupt = errors.New("huffman: corrupt stream")
)

// Code is a canonical Huffman code over symbols [0, NumSymbols).
type Code struct {
	lens  []uint8  // code length per symbol; 0 = unused
	codes []uint32 // canonical code per symbol, MSB-first; encoding only

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

type hnode struct {
	freq        uint64
	sym         int32 // -1 for internal
	left, right int32 // indices into node arena
	depth       int32 // tie-break: prefer shallow trees
}

// hheap is a min-heap of arena indices ordered by (freq, depth). It is
// implemented directly on int32 indices rather than through container/heap:
// the interface{}-based Push/Pop there boxes every index above 255, which
// costs an allocation per heap operation — thousands per Build on wide
// alphabets, and the dominant term in the codecs' steady-state allocs.
type hheap struct {
	arena []hnode
	idx   []int32
}

func (h *hheap) less(i, j int) bool {
	a, b := h.arena[h.idx[i]], h.arena[h.idx[j]]
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return a.depth < b.depth
}

func (h *hheap) push(v int32) {
	h.idx = append(h.idx, v)
	i := len(h.idx) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.idx[i], h.idx[parent] = h.idx[parent], h.idx[i]
		i = parent
	}
}

func (h *hheap) pop() int32 {
	v := h.idx[0]
	n := len(h.idx) - 1
	h.idx[0] = h.idx[n]
	h.idx = h.idx[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.less(l, min) {
			min = l
		}
		if r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		h.idx[i], h.idx[min] = h.idx[min], h.idx[i]
		i = min
	}
	return v
}

// init heapifies idx in place.
func (h *hheap) heapify() {
	n := len(h.idx)
	for i := n/2 - 1; i >= 0; i-- {
		// sift down from i
		j := i
		for {
			l, r := 2*j+1, 2*j+2
			min := j
			if l < n && h.less(l, min) {
				min = l
			}
			if r < n && h.less(r, min) {
				min = r
			}
			if min == j {
				break
			}
			h.idx[j], h.idx[min] = h.idx[min], h.idx[j]
			j = min
		}
	}
}

// Build constructs a canonical Huffman code from symbol frequencies.
// freqs[i] is the frequency of symbol i; zero-frequency symbols get no code.
// At least one symbol must have nonzero frequency. If exactly one symbol is
// used it is assigned a 1-bit code.
func Build(freqs []uint64) (*Code, error) {
	var b Builder
	return b.Build(freqs)
}

// Builder constructs canonical Huffman codes while reusing the heap arena,
// length scratch, and the resulting Code's tables across calls. The zero
// value is ready to use. A Builder is not safe for concurrent use; the *Code
// returned by Build is only valid until the next Build call on the same
// Builder.
type Builder struct {
	heap  hheap
	lens  []uint8
	stack []hframe
	code  Code
}

// hframe is one pending node in the iterative depth-assignment walk.
type hframe struct {
	node  int32
	depth uint8
}

// Build is the reusable-scratch equivalent of the package-level Build. The
// returned Code aliases the Builder's internal storage.
func (b *Builder) Build(freqs []uint64) (*Code, error) {
	n := len(freqs)
	if cap(b.lens) < n {
		b.lens = make([]uint8, n)
	}
	lens := b.lens[:n]
	clear(lens)
	used := 0
	for _, f := range freqs {
		if f > 0 {
			used++
		}
	}
	if used == 0 {
		return nil, ErrNoSymbols
	}
	if used == 1 {
		for i, f := range freqs {
			if f > 0 {
				lens[i] = 1
			}
		}
		if err := b.code.initFrom(lens); err != nil {
			return nil, err
		}
		b.code.assignCodes()
		return &b.code, nil
	}

	h := &b.heap
	h.arena = h.arena[:0]
	h.idx = h.idx[:0]
	for i, f := range freqs {
		if f > 0 {
			h.arena = append(h.arena, hnode{freq: f, sym: int32(i), left: -1, right: -1})
			h.idx = append(h.idx, int32(len(h.arena)-1))
		}
	}
	h.heapify()
	for len(h.idx) > 1 {
		a := h.pop()
		b := h.pop()
		d := h.arena[a].depth
		if h.arena[b].depth > d {
			d = h.arena[b].depth
		}
		h.arena = append(h.arena, hnode{
			freq: h.arena[a].freq + h.arena[b].freq,
			sym:  -1, left: a, right: b, depth: d + 1,
		})
		h.push(int32(len(h.arena) - 1))
	}
	root := h.idx[0]

	// Depth-first assignment of lengths (iterative to avoid recursion limits
	// on degenerate frequency distributions).
	stack := append(b.stack[:0], hframe{root, 0})
	overflow := false
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := h.arena[fr.node]
		if nd.sym >= 0 {
			d := fr.depth
			if d == 0 {
				d = 1
			}
			if d > MaxCodeLen {
				overflow = true
				d = MaxCodeLen
			}
			lens[nd.sym] = d
			continue
		}
		stack = append(stack, hframe{nd.left, fr.depth + 1}, hframe{nd.right, fr.depth + 1})
	}
	b.stack = stack[:0]
	if overflow {
		flattenLengths(lens)
	}
	if err := b.code.initFrom(lens); err != nil {
		return nil, err
	}
	b.code.assignCodes()
	return &b.code, nil
}

// flattenLengths repairs a length set whose Kraft sum exceeds 1 after
// clamping, by repeatedly lengthening the shortest over-represented codes.
// This mirrors the length-limited repair used by deflate encoders.
func flattenLengths(lens []uint8) {
	for {
		var kraft uint64 // scaled by 1<<MaxCodeLen
		for _, l := range lens {
			if l > 0 {
				kraft += 1 << (MaxCodeLen - l)
			}
		}
		if kraft <= 1<<MaxCodeLen {
			return
		}
		// Lengthen the longest code shorter than MaxCodeLen.
		best := -1
		for i, l := range lens {
			if l > 0 && l < MaxCodeLen && (best < 0 || l > lens[best]) {
				best = i
			}
		}
		if best < 0 {
			return // cannot repair; FromLengths will reject
		}
		lens[best]++
	}
}

// FromLengths constructs the canonical code implied by per-symbol code
// lengths (0 meaning the symbol is unused), ready to encode and decode. The
// lengths must satisfy the Kraft inequality.
func FromLengths(lens []uint8) (*Code, error) {
	c := &Code{}
	if err := c.initFrom(lens); err != nil {
		return nil, err
	}
	c.assignCodes()
	c.buildDecodeTables()
	return c, nil
}

// initFrom (re)initializes c as the canonical code implied by lens, reusing
// c's existing table storage where capacity allows. lens is copied. It sets
// what both directions read — the lengths and the per-length first code and
// symbol index — and leaves the encoder's codes to assignCodes and the
// decoder's table to buildDecodeTables.
func (c *Code) initFrom(lens []uint8) error {
	if len(lens) > maxTableSyms {
		return ErrBadLengths
	}
	var counts [MaxCodeLen + 2]uint32
	maxLen := uint8(0)
	used := 0
	for _, l := range lens {
		if l == 0 {
			continue
		}
		if l > MaxCodeLen {
			return ErrBadLengths
		}
		counts[l]++
		used++
		if l > maxLen {
			maxLen = l
		}
	}
	if used == 0 {
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

	// Validation passed: reset all derived state before rebuilding.
	c.maxLen = maxLen
	c.lens = append(c.lens[:0], lens...)
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

	// List the symbols in (length, symbol) order. One pass over the symbols
	// suffices: for a fixed length, symbols appear in increasing order, which
	// is exactly the canonical tie-break, so each symbol lands at its
	// length's running slot cursor.
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
	for s, sl := range lens {
		if sl == 0 {
			continue
		}
		c.symsByCode[slot[sl]] = int32(s)
		slot[sl]++
	}
	return nil
}

// assignCodes gives every used symbol its canonical code, for encoding: the
// k-th symbol of length l in (length, symbol) order gets firstCode[l] + k.
func (c *Code) assignCodes() {
	if cap(c.codes) < len(c.lens) {
		c.codes = make([]uint32, len(c.lens))
	} else {
		c.codes = c.codes[:len(c.lens)]
		clear(c.codes)
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
// the canonical code. Lengths are run-length encoded: (zeroRun, len) pairs.
func (c *Code) WriteTable(w *bitstream.Writer) {
	w.WriteBits(uint64(len(c.lens)), 32)
	i := 0
	for i < len(c.lens) {
		if c.lens[i] == 0 {
			run := 0
			for i < len(c.lens) && c.lens[i] == 0 && run < 65535 {
				run++
				i++
			}
			w.WriteBit(0)
			w.WriteBits(uint64(run), 16)
			continue
		}
		w.WriteBit(1)
		w.WriteBits(uint64(c.lens[i]), 6)
		i++
	}
}

// maxTableSyms is the widest alphabet a code may have, and a serialized
// table may claim: a decode table entry packs the symbol into 24 bits. The
// widest caller, sz, has 2^16 symbols.
const maxTableSyms = 1 << 24

// ReadTableInto reconstructs a Code from a table written by WriteTable into a
// caller-owned Code and length scratch buffer, so decoders that parse one
// table per partition reuse the table storage across partitions instead of
// reallocating ~NumSymbols-sized arrays each time. *lensBuf is grown as
// needed and left holding the parsed lengths. The Code comes back ready to
// decode, with its decode table built, and without the per-symbol codes only
// an encoder reads: it cannot Encode. A table claiming more than maxSyms
// symbols is ErrCorrupt before anything is sized from the claim: the caller
// knows its alphabet, and the storage it keeps across streams must not grow
// to a forged one.
func ReadTableInto(r *bitstream.Reader, c *Code, lensBuf *[]uint8, maxSyms int) error {
	n64, err := r.ReadBits(32)
	if err != nil {
		return err
	}
	n := int(n64)
	if n < 0 || n > min(maxSyms, maxTableSyms) {
		return ErrCorrupt
	}
	lens := *lensBuf
	if cap(lens) < n {
		lens = make([]uint8, n)
	} else {
		lens = lens[:n]
		clear(lens)
	}
	*lensBuf = lens
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
		lens[i] = uint8(l)
		i++
	}
	if err := c.initFrom(lens); err != nil {
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
