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
	"fmt"
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

// Params tunes the content-defined chunker.
type Params struct {
	// MinSize and MaxSize bound chunk sizes in bytes; AvgSize steers the
	// boundary probability so chunks average roughly MinSize+AvgSize.
	// Zero values take the defaults below.
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

// mask returns the boundary mask: a cut fires at an aligned position when
// the gear hash has its top maskBits bits zero, making the expected gap
// after MinSize approximately AvgSize.
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
	span := obs.Start("dedup.split")
	span.SetWorkload("dedup.split", int64(len(data)))
	defer span.End()
	p = p.Normalized()
	if len(data) == 0 {
		return nil
	}
	mask := p.mask()
	var cuts []int
	start := 0
	var h uint64
	for i := 0; i < len(data); i++ {
		h = h<<1 + gearTable[data[i]]
		size := i + 1 - start
		// Boundaries only at aligned positions past MinSize; MaxSize forces
		// a cut (start and MaxSize are align-multiples, so the forced cut
		// lands aligned by construction).
		if size < p.MinSize || (i+1)%p.Align != 0 {
			continue
		}
		if size >= p.MaxSize || h&mask == 0 {
			cuts = append(cuts, i+1)
			start = i + 1
			h = 0
		}
	}
	if start < len(data) {
		cuts = append(cuts, len(data))
	}
	return cuts
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
