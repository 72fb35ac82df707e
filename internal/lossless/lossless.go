// Package lossless implements a DEFLATE-style byte compressor: LZ77 matching
// over a sliding window followed by canonical Huffman coding of the token
// stream. It is the final "lossless stage" of the sz codec, standing in for
// the Zstd/GZIP pass the SZ reference implementation applies to its Huffman
// output.
//
// The format is self-describing: a header carries the raw length and the two
// Huffman tables (literal/length and distance), followed by the token
// payload. It is not DEFLATE-compatible, but uses the same token alphabet
// (literals 0..255, end-of-block, length codes with extra bits, distance
// codes with extra bits), which makes its compression behaviour — and its
// CPU cost profile — representative of the real pipeline.
//
// The stage runs only where it can shrink its input. The encoder first
// estimates, from one byte-histogram pass, what an order-0 coder could
// remove; input with nothing to gain — the Huffman output of a noisy field
// is all but uniform — is written in the stored form instead: the length
// word with its top bit set, then the raw bytes. The same form replaces a
// deflate body that came out no smaller, so a stream is never more than
// eight bytes longer than its input. DESIGN §5i has the measurements.
package lossless

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"lcpio/internal/bitstream"
	"lcpio/internal/huffman"
)

// ErrCorrupt is returned when decoding malformed input.
var ErrCorrupt = errors.New("lossless: corrupt stream")

// MaxExpansion bounds the raw bytes one compressed byte can decode to (a
// saturated run of maximum-length matches, one per bit). Decompress rejects
// headers claiming more; outer formats reuse it for their own plausibility
// checks before sizing output buffers.
const MaxExpansion = 8 * maxMatch

const (
	minMatch = 3
	maxMatch = 258

	symEOB      = 256 // end of block
	symLenBase  = 257 // first of 29 length codes
	numLitLen   = 257 + 29
	numDistSyms = 30

	hashBits = 15
	hashSize = 1 << hashBits

	// storedFlag, in the 64-bit length word that opens every stream, marks
	// the stored form: the low 63 bits count the raw bytes that follow
	// verbatim. A deflate stream's length is at most 1<<40, so the forms
	// cannot be confused, and a decoder older than the flag refuses a stored
	// stream at that same length check.
	storedFlag     = 1 << 63
	storedOverhead = 8

	// gateMinGain is the least share of its input the order-0 estimate must
	// promise before the matcher runs. Over the 54-tuple sweep in DESIGN §5i
	// every partition estimated below 0.5 % either grows under deflate or
	// shrinks by less than 1.3 %, the next estimate up is 0.8 %, and each
	// store decision costs a sixtieth of the deflate pass it replaces.
	gateMinGain = 0.005

	// gateMinLen is the shortest input the estimate is asked about. A
	// 256-bin entropy estimate over n samples reads low by about
	// 255/(2n ln 2) bits, which alone exceeds gateMinGain below 4.6 KB, so
	// there it could only ever answer "deflate"; short inputs skip the
	// histogram and go straight to deflate-then-compare.
	gateMinLen = 4 << 10
)

// Options controls the matcher. The zero value is replaced by Defaults.
type Options struct {
	// WindowSize is the LZ77 history window in bytes (power of two,
	// 1KiB..32KiB). Larger windows find more matches at higher CPU cost;
	// this is one of the ablation knobs called out in DESIGN.md.
	WindowSize int
	// MaxChainLen bounds hash-chain traversal per position (effort).
	MaxChainLen int
}

// Defaults returns the standard effort level used by the sz codec.
func Defaults() Options {
	return Options{WindowSize: 32 << 10, MaxChainLen: 64}
}

func (o Options) normalized() Options {
	d := Defaults()
	if o.WindowSize == 0 {
		o.WindowSize = d.WindowSize
	}
	if o.WindowSize < 1<<10 {
		o.WindowSize = 1 << 10
	}
	if o.WindowSize > 32<<10 {
		o.WindowSize = 32 << 10
	}
	// Round down to a power of two.
	for o.WindowSize&(o.WindowSize-1) != 0 {
		o.WindowSize &= o.WindowSize - 1
	}
	if o.MaxChainLen <= 0 {
		o.MaxChainLen = d.MaxChainLen
	}
	return o
}

// length code table: code i covers lengths [lenBase[i], lenBase[i]+2^lenExtra[i]).
var (
	lenBase = [29]int{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
		35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra = [29]uint{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
		3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase = [30]int{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129,
		193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193,
		12289, 16385, 24577}
	distExtra = [30]uint{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
		7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
)

func lengthCode(l int) int {
	// Linear scan is fine: 29 entries, and encode cost is dominated by
	// matching. Binary search would obscure the table correspondence.
	for i := 28; i >= 0; i-- {
		if l >= lenBase[i] {
			return i
		}
	}
	panic(fmt.Sprintf("lossless: length %d below minimum", l))
}

func distCode(d int) int {
	for i := 29; i >= 0; i-- {
		if d >= distBase[i] {
			return i
		}
	}
	panic(fmt.Sprintf("lossless: distance %d below minimum", d))
}

// token is 8 bytes to keep the token stream cheap to grow on
// literal-heavy input: length 0 marks a literal whose byte lives in
// distOrLit; otherwise distOrLit is the match distance.
type token struct {
	length    uint32
	distOrLit uint32
}

func literalToken(b byte) token { return token{distOrLit: uint32(b)} }
func matchToken(l, d int) token { return token{length: uint32(l), distOrLit: uint32(d)} }
func (t token) isLiteral() bool { return t.length == 0 }
func (t token) lit() byte       { return byte(t.distOrLit) }
func (t token) matchLen() int   { return int(t.length) }
func (t token) matchDist() int  { return int(t.distOrLit) }

// encState bundles every scratch structure the encoder needs — LZ77 hash
// tables, the token stream, Huffman histograms and builders, and the
// bitstream staging writer — so steady-state compression performs no
// allocations once the pool is warm.
type encState struct {
	tokens     []token
	head       []int32
	prev       []int32
	litLenFreq []uint64
	distFreq   []uint64
	litBuilder huffman.Builder
	dstBuilder huffman.Builder
	w          bitstream.Writer
}

var encPool = sync.Pool{New: func() any {
	return &encState{
		head:       make([]int32, hashSize),
		litLenFreq: make([]uint64, numLitLen),
		distFreq:   make([]uint64, numDistSyms),
	}
}}

// Compress compresses src with the given options and returns the packed
// stream. An empty src compresses to a valid stream.
func Compress(src []byte, opts Options) []byte {
	return AppendCompress(nil, src, opts)
}

// AppendCompress compresses src and appends the packed stream to dst,
// returning the extended slice. All scratch state comes from an internal
// pool, so steady-state calls do not allocate beyond growing dst.
func AppendCompress(dst, src []byte, opts Options) []byte {
	if gain, asked := EntropyGain(src); asked && gain < gateMinGain {
		return appendStored(dst, src)
	}
	st := encPool.Get().(*encState)
	defer encPool.Put(st)
	// body aliases the pooled writer's buffer; it is copied into dst before
	// the deferred Put makes it reusable.
	body := st.deflate(src, opts.normalized())
	if len(body) >= storedOverhead+len(src) {
		return appendStored(dst, src)
	}
	return append(dst, body...)
}

// deflate writes src's deflate form — length word, code tables, token
// payload — into st.w and returns its bytes.
func (st *encState) deflate(src []byte, opts Options) []byte {
	tokenizeInto(st, src, opts)

	// Build histograms over the token alphabet.
	litLenFreq, distFreq := st.litLenFreq, st.distFreq
	clear(litLenFreq)
	clear(distFreq)
	for _, t := range st.tokens {
		if t.isLiteral() {
			litLenFreq[t.lit()]++
		} else {
			litLenFreq[symLenBase+lengthCode(t.matchLen())]++
			distFreq[distCode(t.matchDist())]++
		}
	}
	litLenFreq[symEOB]++

	litLenCode := mustBuildWith(&st.litBuilder, litLenFreq)
	var distCodeTab code
	hasDist := false
	for _, f := range distFreq {
		if f > 0 {
			hasDist = true
			break
		}
	}
	if hasDist {
		distCodeTab = mustBuildWith(&st.dstBuilder, distFreq)
	}

	w := &st.w
	w.Reset()
	w.WriteBits(uint64(len(src)), 64)
	w.WriteBool(hasDist)
	litLenCode.writeTable(w)
	if hasDist {
		distCodeTab.writeTable(w)
	}
	for _, t := range st.tokens {
		if t.isLiteral() {
			litLenCode.encode(w, int(t.lit()))
			continue
		}
		lc := lengthCode(t.matchLen())
		litLenCode.encode(w, symLenBase+lc)
		w.WriteBits(uint64(t.matchLen()-lenBase[lc]), lenExtra[lc])
		dc := distCode(t.matchDist())
		distCodeTab.encode(w, dc)
		w.WriteBits(uint64(t.matchDist()-distBase[dc]), distExtra[dc])
	}
	litLenCode.encode(w, symEOB)
	return w.Bytes()
}

func appendStored(dst, src []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, storedFlag|uint64(len(src)))
	return append(dst, src...)
}

// Stored reports whether stream, as written by Compress, is in the stored
// form.
func Stored(stream []byte) bool {
	return len(stream) > 0 && stream[0]&(storedFlag>>56) != 0
}

// EntropyGain returns the share of src an ideal order-0 byte coder would
// remove, 1 - H/8 with H the entropy of the byte histogram in bits: the
// estimate AppendCompress gates the matcher on. asked is false, and nothing
// is counted, for an input shorter than gateMinLen, which AppendCompress
// does not ask about. The estimate sees neither repeats nor the cost of the
// code tables, which is why the encoder still compares sizes after a deflate
// pass.
func EntropyGain(src []byte) (gain float64, asked bool) {
	if len(src) < gateMinLen {
		return 0, false
	}
	// Four lanes, so a run of one byte value is not a chain of dependent
	// read-modify-writes of one counter. uint32 cannot wrap: the matcher's
	// int32 positions already keep src below 2 GiB.
	var lanes [4][256]uint32
	i := 0
	for ; i+8 <= len(src); i += 8 {
		v := binary.LittleEndian.Uint64(src[i:])
		lanes[0][byte(v)]++
		lanes[1][byte(v>>8)]++
		lanes[2][byte(v>>16)]++
		lanes[3][byte(v>>24)]++
		lanes[0][byte(v>>32)]++
		lanes[1][byte(v>>40)]++
		lanes[2][byte(v>>48)]++
		lanes[3][byte(v>>56)]++
	}
	for ; i < len(src); i++ {
		lanes[0][src[i]]++
	}
	n := float64(len(src))
	var bits float64
	for b := range lanes[0] {
		if c := lanes[0][b] + lanes[1][b] + lanes[2][b] + lanes[3][b]; c > 0 {
			bits += float64(c) * math.Log2(n/float64(c))
		}
	}
	return 1 - bits/(8*n), true
}

// decState is the decode-side counterpart of encState: the bit reader, both
// Huffman codes with their decode tables (a 12-bit table pair is ~20 KiB per
// code), so steady-state decompression allocates nothing beyond growing dst.
type decState struct {
	r      bitstream.Reader
	litLen huffman.Code
	dist   huffman.Code
}

var decPool = sync.Pool{New: func() any { return new(decState) }}

// Decompress reverses Compress.
func Decompress(buf []byte) ([]byte, error) {
	return AppendDecompress(nil, buf)
}

// AppendDecompress decompresses buf and appends the raw bytes to dst,
// returning the extended slice. Match distances are resolved only within the
// newly decompressed region, never into the dst prefix.
func AppendDecompress(dst, buf []byte) ([]byte, error) {
	st := decPool.Get().(*decState)
	defer decPool.Put(st)
	return st.decompress(dst, buf)
}

func (st *decState) decompress(dst, buf []byte) ([]byte, error) {
	r := &st.r
	r.Reset(buf)
	n64, err := r.ReadBits(64)
	if err != nil {
		return nil, err
	}
	if n64&storedFlag != 0 {
		// Stored: the word must count exactly the bytes that remain, so a
		// forged length is refused before anything is sized by it.
		if n64&^storedFlag != uint64(len(buf)-storedOverhead) {
			return nil, ErrCorrupt
		}
		return append(dst, buf[storedOverhead:]...), nil
	}
	if n64 > 1<<40 {
		return nil, ErrCorrupt
	}
	rawLen := int(n64)
	// Plausibility: even a 1-bit Huffman token cannot emit more than
	// maxMatch bytes, so the raw length is bounded by compressed bits
	// times the maximum match length. This rejects forged headers before
	// they drive allocation.
	if rawLen > len(buf)*MaxExpansion+1024 {
		return nil, ErrCorrupt
	}
	hasDist, err := r.ReadBool()
	if err != nil {
		return nil, err
	}
	// A table wider than its token alphabet is forged: rejecting it before
	// it is parsed keeps the pooled tables at their working size and every
	// decoded symbol inside the base/extra-bits arrays.
	litLenCode, distCode := &st.litLen, &st.dist
	if err := huffman.ReadTableInto(r, litLenCode, numLitLen); err != nil {
		return nil, err
	}
	if hasDist {
		if err := huffman.ReadTableInto(r, distCode, numDistSyms); err != nil {
			return nil, err
		}
	}
	// Cap the initial allocation: growth is amortized and a forged header
	// that slipped past the plausibility check must not OOM us.
	capHint := rawLen
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	base := len(dst)
	out := dst
	if cap(out)-base < capHint {
		out = append(make([]byte, 0, base+capHint), dst...)
	}
	// Both codes read through one bit window held in locals, and the extra
	// bits come out of it too: r sees the window only to refill it.
	litDec := litLenCode.NewDecoder(r)
	var distDec huffman.Decoder
	if hasDist {
		distDec = distCode.NewDecoder(r)
	}
	cur, nc := litDec.Window()
	for {
		var s int
		if s, cur, nc = litDec.Next(cur, nc); s < 0 {
			if s, cur, nc = litDec.Resolve(cur, nc); s < 0 {
				return nil, litDec.Finish(cur, nc)
			}
		}
		switch {
		case s < 256:
			out = append(out, byte(s))
		case s == symEOB:
			if len(out)-base != rawLen {
				return nil, ErrCorrupt
			}
			r.SetWindow(cur, nc)
			return out, nil
		default:
			lc := s - symLenBase
			if lc >= 29 || !hasDist {
				return nil, ErrCorrupt
			}
			n := lenExtra[lc]
			if n > nc {
				if cur, nc = r.Refill(cur, nc); n > nc {
					return nil, bitstream.ErrOverrun
				}
			}
			length := lenBase[lc] + int(cur>>(64-n))
			cur, nc = cur<<n, nc-n
			var ds int
			if ds, cur, nc = distDec.Next(cur, nc); ds < 0 {
				if ds, cur, nc = distDec.Resolve(cur, nc); ds < 0 {
					return nil, distDec.Finish(cur, nc)
				}
			}
			if n = distExtra[ds]; n > nc {
				if cur, nc = r.Refill(cur, nc); n > nc {
					return nil, bitstream.ErrOverrun
				}
			}
			dist := distBase[ds] + int(cur>>(64-n))
			cur, nc = cur<<n, nc-n
			if dist > len(out)-base {
				return nil, ErrCorrupt
			}
			if len(out)-base+length > rawLen {
				return nil, ErrCorrupt
			}
			out = appendMatch(out, dist, length)
		}
		if len(out)-base > rawLen {
			return nil, ErrCorrupt
		}
	}
}

// appendMatch appends length bytes starting dist back from the end of out.
// When the match overlaps its own output (dist < length) the source is a
// period-dist pattern, so each pass copies everything produced so far and the
// available span doubles; dist >= length is a single copy.
func appendMatch(out []byte, dist, length int) []byte {
	start := len(out) - dist
	for length > 0 {
		n := len(out) - start
		if n > length {
			n = length
		}
		out = append(out, out[start:start+n]...)
		length -= n
	}
	return out
}

func hash4(b []byte) uint32 {
	v := binary.LittleEndian.Uint32(b)
	return (v * 2654435761) >> (32 - hashBits)
}

// tokenizeInto runs the LZ77 matcher, producing a literal/match token stream
// in st.tokens and reusing st's hash tables.
func tokenizeInto(st *encState, src []byte, opts Options) {
	// Worst case (incompressible input) emits one literal per byte;
	// reserving half of that keeps regrowth to a single step while not
	// over-allocating for compressible data.
	if cap(st.tokens) < len(src)/2+8 {
		st.tokens = make([]token, 0, len(src)/2+8)
	}
	tokens := st.tokens[:0]
	if len(src) < minMatch+1 {
		for _, b := range src {
			tokens = append(tokens, literalToken(b))
		}
		st.tokens = tokens
		return
	}
	head := st.head
	if cap(st.prev) < len(src) {
		st.prev = make([]int32, len(src))
	}
	prev := st.prev[:len(src)]
	for i := range head {
		head[i] = -1
	}
	window := opts.WindowSize

	findMatch := func(pos int) (length, dist int) {
		// hash4 reads 4 bytes; tail matches shorter than that are emitted
		// as literals instead.
		if pos+4 > len(src) {
			return 0, 0
		}
		limit := len(src) - pos
		if limit > maxMatch {
			limit = maxMatch
		}
		h := hash4(src[pos:])
		cand := head[h]
		chains := opts.MaxChainLen
		best, bestDist := 0, 0
		for cand >= 0 && chains > 0 && pos-int(cand) <= window {
			c := int(cand)
			// Quick rejection on the byte past the current best.
			if best > 0 && (c+best >= pos || src[c+best] != src[pos+best]) {
				cand = prev[c]
				chains--
				continue
			}
			l := 0
			for l < limit && src[c+l] == src[pos+l] {
				l++
			}
			if l > best {
				best, bestDist = l, pos-c
				if l >= limit {
					break
				}
			}
			cand = prev[c]
			chains--
		}
		if best >= minMatch {
			return best, bestDist
		}
		return 0, 0
	}

	insert := func(pos int) {
		if pos+4 > len(src) {
			return
		}
		h := hash4(src[pos:])
		prev[pos] = head[h]
		head[h] = int32(pos)
	}

	i := 0
	for i < len(src) {
		length, dist := findMatch(i)
		insert(i)
		if length == 0 {
			tokens = append(tokens, literalToken(src[i]))
			i++
			continue
		}
		// Lazy matching, as in deflate's higher effort levels: when the
		// match one byte later is longer by more than the literal it
		// costs, emit this byte as a literal and take that match.
		if length < maxMatch && i+1 < len(src) {
			if nl, nd := findMatch(i + 1); nl > length+1 {
				tokens = append(tokens, literalToken(src[i]))
				i++
				length, dist = nl, nd
			}
		}
		tokens = append(tokens, matchToken(length, dist))
		// Insert hash entries across the match so later matches can refer
		// into it; skip-ahead insertion keeps long runs cheap.
		end := i + length
		step := 1
		if length > 64 {
			step = 4
		}
		for j := i + 1; j < end && j < len(src); j += step {
			insert(j)
		}
		i = end
	}
	st.tokens = tokens
}
