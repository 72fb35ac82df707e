// Package dedup is the content-addressed chunk layer under incremental
// checkpoints: content-defined chunking (a gear rolling hash picks
// boundaries, so an edit moves at most the chunks it touches), truncated
// SHA-256 digests as chunk identities, and a refcounted digest index that
// answers "is this content already stored, and where?".
//
// Chunk boundaries depend only on the bytes and the Params, never on
// worker count or call order, so everything built on top (the ckpt v3
// delta writer) stays byte-deterministic.
package dedup

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/bits"
	"sync"

	"lcpio/internal/obs"
)

// DigestLen is the stored digest size: SHA-256 truncated to 128 bits,
// plenty against accidental collision at checkpoint scales while halving
// the manifest footprint.
const DigestLen = 16

// Digest identifies a chunk's content.
type Digest [DigestLen]byte

// Sum digests b: SHA-256 truncated to DigestLen bytes.
func Sum(b []byte) Digest {
	full := sha256.Sum256(b)
	var d Digest
	copy(d[:], full[:DigestLen])
	return d
}

func (d Digest) String() string { return fmt.Sprintf("%x", d[:]) }

// hasherScratch is the byte window a Float32Hasher serialises values through.
const hasherScratch = 16 << 10

// Float32Hasher digests float32 arrays as Sum digests their little-endian
// bytes, through a fixed scratch into one streaming SHA-256, so no buffer the
// size of the input exists. The zero value is ready; a hasher belongs to one
// goroutine.
type Float32Hasher struct {
	sha hash.Hash
	buf []byte
}

// Sum returns Sum of data's little-endian bytes.
func (h *Float32Hasher) Sum(data []float32) Digest {
	if h.sha == nil {
		h.sha, h.buf = sha256.New(), make([]byte, 0, hasherScratch)
	}
	h.sha.Reset()
	for len(data) > 0 {
		n := min(len(data), hasherScratch/4)
		buf := h.buf[:0]
		for _, v := range data[:n] {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
		h.sha.Write(buf)
		data = data[n:]
	}
	var d Digest
	copy(d[:], h.sha.Sum(h.buf[:0]))
	return d
}

// Params tunes the content-defined chunker.
type Params struct {
	// MinSize and MaxSize bound chunk sizes in bytes; AvgSize steers the
	// boundary probability (see mask): chunks average
	// MinSize + Align·2^⌊log2((AvgSize−MinSize)/Align)⌋ bytes, less what the
	// MaxSize cut takes off the tail: 6141 measured on random bytes at the
	// defaults with Align 4, where the formula gives 2048 + 4096 — not the
	// 10 KiB that MinSize+AvgSize would be. Zero values take the defaults
	// below.
	MinSize, AvgSize, MaxSize int
	// Align forces boundaries onto multiples of this (power of two; the
	// checkpoint layer uses 4 so chunks map to whole float32 values).
	// Zero means 1.
	Align int
}

// Default chunking geometry: fine enough that a localized churn region
// dirties little more than itself, coarse enough that manifest entries
// stay a negligible fraction of payload.
const (
	DefaultMinSize = 2 << 10
	DefaultAvgSize = 8 << 10
	DefaultMaxSize = 32 << 10

	// MaxChunkSize caps MaxSize; the ckpt manifest encodes chunk lengths
	// as uint32 against this bound before allocating.
	MaxChunkSize = 1 << 27
)

// Normalized fills defaults and rounds the bounds onto the alignment.
func (p Params) Normalized() Params {
	if p.Align <= 0 {
		p.Align = 1
	}
	if p.MinSize <= 0 {
		p.MinSize = DefaultMinSize
	}
	if p.AvgSize <= 0 {
		p.AvgSize = DefaultAvgSize
	}
	if p.MaxSize <= 0 {
		p.MaxSize = DefaultMaxSize
	}
	round := func(n int) int {
		if r := n % p.Align; r != 0 {
			n += p.Align - r
		}
		return n
	}
	p.MinSize = round(p.MinSize)
	p.MaxSize = round(p.MaxSize)
	if p.AvgSize < p.MinSize {
		p.AvgSize = p.MinSize
	}
	if p.MaxSize < p.AvgSize {
		p.MaxSize = round(p.AvgSize)
	}
	return p
}

// Validate rejects geometries the chunker (and the ckpt wire format)
// cannot honor. Call on Normalized() params.
func (p Params) Validate() error {
	if p.Align < 1 || p.Align&(p.Align-1) != 0 || p.Align > 64 {
		return fmt.Errorf("dedup: alignment %d is not a power of two in [1,64]", p.Align)
	}
	if p.MinSize < 16 || p.MinSize > p.AvgSize || p.AvgSize > p.MaxSize || p.MaxSize > MaxChunkSize {
		return fmt.Errorf("dedup: chunk sizes %d/%d/%d violate 16 <= min <= avg <= max <= %d",
			p.MinSize, p.AvgSize, p.MaxSize, MaxChunkSize)
	}
	if p.MinSize%p.Align != 0 || p.MaxSize%p.Align != 0 {
		return fmt.Errorf("dedup: min/max sizes %d/%d not multiples of alignment %d",
			p.MinSize, p.MaxSize, p.Align)
	}
	return nil
}

// mask returns the boundary mask: a cut fires at an aligned position past
// MinSize when the gear hash has its top b bits zero, b the whole bits of
// (AvgSize−MinSize)/Align — one aligned position in 2^b, an expected gap
// after MinSize of Align·2^b bytes. That is (AvgSize−MinSize) rounded down to
// a power of two times Align, not AvgSize; cuts are stream-visible, so the
// rounding stays.
func (p Params) mask() uint64 {
	gap := (p.AvgSize - p.MinSize) / p.Align
	if gap < 1 {
		gap = 1
	}
	b := bits.Len(uint(gap)) - 1
	if b < 0 {
		b = 0
	}
	if b > 48 {
		b = 48
	}
	return ^uint64(0) << (64 - b) // b == 0 yields mask 0: cut at every aligned position past MinSize
}

// gearTable is the 256-entry random table driving the rolling hash,
// generated deterministically from a fixed seed (splitmix64) so chunk
// boundaries are stable across builds and platforms.
var gearTable = func() [256]uint64 {
	var t [256]uint64
	x := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		t[i] = z ^ (z >> 31)
	}
	return t
}()

// Split cuts data into content-defined chunks and returns the boundary
// end offsets (ascending, last == len(data)). Every chunk is between
// MinSize and MaxSize bytes (the final chunk may be shorter than MinSize)
// and every boundary is a multiple of Align. Empty input yields nil.
func Split(data []byte, p Params) []int {
	return split(data, len(data), p, scanBytes)
}

// SplitFloat32 is Split over the little-endian bytes of data, which it never
// materialises: the cuts (byte offsets) are exactly Split's over those
// bytes. A cut cannot fall inside a value, so p.Align must be a multiple of
// 4; anything else is a caller bug and panics.
func SplitFloat32(data []float32, p Params) []int {
	if p.Align <= 0 || p.Align%4 != 0 {
		panic(fmt.Sprintf("dedup: SplitFloat32 with alignment %d, not a multiple of 4", p.Align))
	}
	return split(data, len(data)*4, p, scanFloat32)
}

// gearWindow is how many bytes the gear hash remembers: h = h<<1 + gear[b]
// shifts a byte's contribution out of the uint64 after 64 more bytes, so the
// hash at a position is a function of the 64 bytes before it and of nothing
// older.
const gearWindow = 64

// split walks the chunks of an n-byte input. A chunk's first boundary test
// is at start+MinSize and its last at start+MaxSize (a forced cut) or the
// end of the input; scan hashes from gearWindow bytes before the first test
// — or from the chunk's start, where the hash is cleared, when MinSize is
// shorter than the window — and reports the first test that fires. The
// bytes of a chunk before that are never read.
func split[S any](data S, n int, p Params, scan func(data S, from, first, last, align int, mask uint64) int) []int {
	span := obs.Start("dedup.split")
	defer span.End()
	p = p.Normalized()
	mask := p.mask()
	var cuts []int
	for start := 0; start < n; {
		cut := min(start+p.MaxSize, n)
		if first := start + p.MinSize; first <= cut {
			cut = scan(data, first-min(p.MinSize, gearWindow), first, cut, p.Align, mask)
		}
		cuts = append(cuts, cut)
		start = cut
	}
	return cuts
}

// scanBytes hashes data[from:first] and on through data[first:last], and
// returns the first position from first on where the hash has the mask's bits
// clear and that is a multiple of align, or last when there is none. The
// hash is tested before the alignment: it passes at one position in
// 2^(mask's set bits), so the divide runs that often and not once per byte.
func scanBytes(data []byte, from, first, last, align int, mask uint64) int {
	var h uint64
	for _, b := range data[from:first] {
		h = h<<1 + gearTable[b]
	}
	for q := first; ; q++ {
		for q < last && h&mask != 0 {
			h = h<<1 + gearTable[data[q]]
			q++
		}
		if q >= last || q%align == 0 {
			return q
		}
		h = h<<1 + gearTable[data[q]]
	}
}

// scanFloat32 is scanBytes over the little-endian bytes of data, a value at
// a time; every offset it is handed is a multiple of 4.
func scanFloat32(data []float32, from, first, last, align int, mask uint64) int {
	var h uint64
	for _, v := range data[from/4 : first/4] {
		h = gear4(h, math.Float32bits(v))
	}
	vals := data[:last/4]
	for i := first / 4; ; i++ {
		for i < len(vals) && h&mask != 0 {
			h = gear4(h, math.Float32bits(vals[i]))
			i++
		}
		if i >= len(vals) || 4*i%align == 0 {
			return 4 * i
		}
		h = gear4(h, math.Float32bits(vals[i]))
	}
}

// gear4 is four steps of the gear hash over the little-endian bytes of u.
// The table terms do not depend on h, so only one shift and one add per value
// sit on the loop-carried chain.
func gear4(h uint64, u uint32) uint64 {
	return h<<4 + (gearTable[byte(u)]<<3 + gearTable[byte(u>>8)]<<2 + gearTable[byte(u>>16)]<<1 + gearTable[u>>24])
}

// Location names where a chunk's content lives inside a checkpoint set:
// the (rank, field) payload it belongs to and the byte range within that
// payload's raw content.
type Location struct {
	Rank, Field int
	RawOff      int64
	RawLen      int64
}

// Index is the digest-addressed chunk index: digest -> first-seen
// location plus a reference count. Safe for concurrent use.
type Index struct {
	mu sync.RWMutex
	m  map[Digest]*indexEntry
}

type indexEntry struct {
	loc  Location
	refs int
}

// NewIndex returns an empty index.
func NewIndex() *Index { return &Index{m: make(map[Digest]*indexEntry)} }

// Add records content at loc. If the digest is new it is stored with one
// reference and Add returns true; otherwise the existing entry gains a
// reference and Add returns false (the stored location wins).
func (x *Index) Add(d Digest, loc Location) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	if e, ok := x.m[d]; ok {
		e.refs++
		return false
	}
	x.m[d] = &indexEntry{loc: loc, refs: 1}
	return true
}

// Lookup returns the stored location of d and adds a reference on hit.
func (x *Index) Lookup(d Digest) (Location, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if e, ok := x.m[d]; ok {
		e.refs++
		return e.loc, true
	}
	return Location{}, false
}

// Refs returns d's reference count (0 when absent).
func (x *Index) Refs(d Digest) int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if e, ok := x.m[d]; ok {
		return e.refs
	}
	return 0
}

// Len is the number of distinct digests indexed.
func (x *Index) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.m)
}
