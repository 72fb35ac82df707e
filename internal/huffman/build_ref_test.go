package huffman

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lcpio/internal/bitstream"
)

// refBuild is the Build that ran a heap of arena indices ordered by (freq,
// depth), walked the finished tree depth-first and repaired overlong codes
// over the whole alphabet, kept as the definition of the code lengths: Build
// must give every symbol the length refBuild does. It is that Build verbatim
// apart from its names (the ref prefix) and its end: it returns the lengths
// instead of canonicalizing them.
func refBuild(freqs []uint64) ([]uint8, error) {
	var b refBuilder
	return b.build(freqs)
}

type refNode struct {
	freq        uint64
	sym         int32 // -1 for internal
	left, right int32 // indices into node arena
	depth       int32 // tie-break: prefer shallow trees
}

type refHeap struct {
	arena []refNode
	idx   []int32
}

func (h *refHeap) less(i, j int) bool {
	a, b := h.arena[h.idx[i]], h.arena[h.idx[j]]
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return a.depth < b.depth
}

func (h *refHeap) push(v int32) {
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

func (h *refHeap) pop() int32 {
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

func (h *refHeap) heapify() {
	n := len(h.idx)
	for i := n/2 - 1; i >= 0; i-- {
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

type refBuilder struct {
	heap  refHeap
	lens  []uint8
	stack []refFrame
}

type refFrame struct {
	node  int32
	depth uint8
}

func (b *refBuilder) build(freqs []uint64) ([]uint8, error) {
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
		return lens, nil
	}

	h := &b.heap
	h.arena = h.arena[:0]
	h.idx = h.idx[:0]
	for i, f := range freqs {
		if f > 0 {
			h.arena = append(h.arena, refNode{freq: f, sym: int32(i), left: -1, right: -1})
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
		h.arena = append(h.arena, refNode{
			freq: h.arena[a].freq + h.arena[b].freq,
			sym:  -1, left: a, right: b, depth: d + 1,
		})
		h.push(int32(len(h.arena) - 1))
	}
	root := h.idx[0]

	stack := append(b.stack[:0], refFrame{root, 0})
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
		stack = append(stack, refFrame{nd.left, fr.depth + 1}, refFrame{nd.right, fr.depth + 1})
	}
	b.stack = stack[:0]
	if overflow {
		refFlattenLengths(lens)
	}
	return lens, nil
}

func refFlattenLengths(lens []uint8) {
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

// partitionHistogram is the histogram of one sz partition's 131,072
// quantization codes over the 2^16 alphabet, in the shape the benchmark's
// fields give: "nyx" a spike around the interval radius, about 60 symbols
// used (NYX velocity_x at rel 1e-3), and "hacc" a broad hump, about 2,350
// used, with the odd unpredictable value's symbol 0 (HACC vx at rel 1e-4).
func partitionHistogram(rng *rand.Rand, shape string) []uint64 {
	const alphabet, radius, n = 1 << 16, 1 << 15, 131072
	freqs := make([]uint64, alphabet)
	for range n {
		var d int
		switch shape {
		case "nyx":
			switch p := rng.Float64(); {
			case p < 0.96:
				d = int(math.Round(rng.NormFloat64() * 0.8))
			case p < 0.9995:
				d = int(rng.ExpFloat64()*2.5) + 2
			default:
				d = int(rng.ExpFloat64()*14) + 2
			}
			if rng.Intn(2) == 0 {
				d = -d
			}
		case "hacc":
			if rng.Intn(1000) == 0 {
				d = -radius
				break
			}
			d = int(math.Round(rng.NormFloat64() * 360))
		default:
			panic("partitionHistogram: unknown shape " + shape)
		}
		freqs[radius+d]++
	}
	return freqs
}

// buildTable draws one frequency table for the differential tests: tie-heavy
// tables (alphabets 2..2^16 with frequencies from tiny ranges), sz partition
// histograms, Fibonacci frequencies deep enough to need flattenLengths, one-
// and two-symbol tables, and sparse tables with wide frequencies.
func buildTable(rng *rand.Rand) []uint64 {
	alphabet := func() int { return 2 + rng.Intn(1<<(1+rng.Intn(16))-1) }
	switch rng.Intn(8) {
	case 0, 1: // ties everywhere
		freqs := make([]uint64, min(alphabet(), 1<<16))
		hi := 1 + rng.Intn(3)
		for i := range freqs {
			freqs[i] = uint64(rng.Intn(hi + 1))
		}
		return freqs
	case 2:
		return partitionHistogram(rng, "nyx")
	case 3:
		return partitionHistogram(rng, "hacc")
	case 4: // Fibonacci, scattered over the alphabet: past MaxCodeLen deep
		freqs := make([]uint64, min(80+alphabet(), 1<<16))
		a, b := uint64(1+rng.Intn(2)), uint64(1+rng.Intn(3))
		for _, s := range rng.Perm(len(freqs))[:33+rng.Intn(45)] {
			freqs[s] = a
			a, b = b, a+b
		}
		return freqs
	case 5, 6: // one or two symbols
		freqs := make([]uint64, alphabet())
		for range 1 + rng.Intn(2) {
			freqs[rng.Intn(len(freqs))] = 1 + uint64(rng.Int63n(1<<uint(rng.Intn(40)+1)))
		}
		return freqs
	default: // sparse, wide frequencies
		freqs := make([]uint64, alphabet())
		for range 1 + rng.Intn(min(len(freqs), 4096)) {
			freqs[rng.Intn(len(freqs))] = uint64(rng.Int63n(1 << uint(1+rng.Intn(40))))
		}
		return freqs
	}
}

// sameLengths reports whether Build on b and refBuild agree on freqs: the
// same error, or the same length for every symbol.
func sameLengths(t *testing.T, b *Builder, freqs []uint64) bool {
	t.Helper()
	want, werr := refBuild(freqs)
	c, err := b.Build(freqs)
	if err != werr {
		t.Logf("%d symbols: err %v, reference %v", len(freqs), err, werr)
		return false
	}
	if err != nil {
		return true
	}
	if !bytes.Equal(c.lens, want) {
		for s := range want {
			if c.lens[s] != want[s] {
				t.Logf("%d symbols: symbol %d (freq %d) length %d, reference %d",
					len(freqs), s, freqs[s], c.lens[s], want[s])
				break
			}
		}
		return false
	}
	return true
}

// TestQuickBuildMatchesReference: Build gives every symbol of every drawn
// table the length refBuild does, through one Builder reused across tables
// of every width.
func TestQuickBuildMatchesReference(t *testing.T) {
	var b Builder
	f := func(seed int64) bool {
		return sameLengths(t, &b, buildTable(rand.New(rand.NewSource(seed))))
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestBuilderReuseWideNarrowWide: a Builder reused from a wide alphabet to a
// narrow one and back gives each code the lengths, table and stream bytes of
// a fresh Builder's, and refuses to Encode a symbol the previous build used
// and this one does not.
func TestBuilderReuseWideNarrowWide(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	hacc := partitionHistogram(rng, "hacc")
	nyx := partitionHistogram(rng, "nyx")
	narrow := make([]uint64, 286)
	for i := range narrow {
		if i%3 != 0 {
			narrow[i] = uint64(1 + rng.Intn(50))
		}
	}
	var b Builder
	var prev []uint64
	for _, step := range []struct {
		name  string
		freqs []uint64
	}{{"wide", hacc}, {"narrow", narrow}, {"wide again", nyx}} {
		if !sameLengths(t, &b, step.freqs) {
			t.Fatalf("%s: lengths differ from the reference", step.name)
		}
		c, _ := b.Build(step.freqs)
		var fresh Builder
		want, err := fresh.Build(step.freqs)
		if err != nil {
			t.Fatal(err)
		}
		if got, w := encodeAllUsed(c, step.freqs), encodeAllUsed(want, step.freqs); !bytes.Equal(got, w) {
			t.Fatalf("%s: reused Builder wrote %d bytes, a fresh one %d", step.name, len(got), len(w))
		}
		stale := -1
		for s, f := range prev {
			if f != 0 && s < len(step.freqs) && step.freqs[s] == 0 {
				stale = s
				break
			}
		}
		if prev != nil && stale < 0 {
			t.Fatalf("%s: no symbol the previous table used and this one does not", step.name)
		}
		if stale >= 0 && !panics(func() { c.Encode(bitstream.NewWriter(0), stale) }) {
			t.Fatalf("%s: Encode of symbol %d, used only by the previous build, did not panic", step.name, stale)
		}
		prev = step.freqs
	}
}

// encodeAllUsed writes c's table and then every used symbol once.
func encodeAllUsed(c *Code, freqs []uint64) []byte {
	var syms []int
	for s, f := range freqs {
		if f != 0 {
			syms = append(syms, s)
		}
	}
	w := bitstream.NewWriter(0)
	c.WriteTable(w)
	c.EncodeAll(w, syms)
	return w.Bytes()
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestBuildFreqTotalCap: a table summing to 2^57 − 1 builds, with the lengths
// refBuild gives it; one summing to 2^57, or to more by wrapping a uint64,
// is ErrFreqTotal.
func TestBuildFreqTotalCap(t *testing.T) {
	var b Builder
	for _, freqs := range [][]uint64{
		{maxFreqTotal - 1},
		{1 << 56, 1<<56 - 1},
		{1 << 55, 0, 1 << 55, 1<<56 - 1},
		{1, 1<<57 - 3, 1},
	} {
		if !sameLengths(t, &b, freqs) {
			t.Fatalf("%v: lengths differ from the reference", freqs)
		}
	}
	for _, freqs := range [][]uint64{
		{maxFreqTotal},
		{1 << 56, 1 << 56},
		{1 << 55, 0, 1 << 55, 1 << 56},
		{1 << 63, 1 << 63},
		{math.MaxUint64, 2},
	} {
		if _, err := b.Build(freqs); err != ErrFreqTotal {
			t.Fatalf("%v: err %v, want ErrFreqTotal", freqs, err)
		}
	}
}

// encodeTable is FuzzBuild's input form of a frequency table: per nonzero
// entry, a uvarint gap from the previous one's symbol and a uvarint
// frequency; then a uvarint count of unused symbols after the last.
func encodeTable(freqs []uint64) []byte {
	var out []byte
	next := 0
	for s, f := range freqs {
		if f != 0 {
			out = binary.AppendUvarint(out, uint64(s-next))
			out = binary.AppendUvarint(out, f)
			next = s + 1
		}
	}
	return binary.AppendUvarint(out, uint64(len(freqs)-next))
}

// decodeTable reverses encodeTable, refusing alphabets over 2^16; a last gap
// with no frequency after it counts trailing unused symbols.
func decodeTable(data []byte) ([]uint64, bool) {
	var freqs []uint64
	for len(data) > 0 {
		gap, k := binary.Uvarint(data)
		if k <= 0 || gap > 1<<16 || len(freqs)+int(gap) > 1<<16 {
			return nil, false
		}
		data = data[k:]
		freqs = append(freqs, make([]uint64, gap)...)
		if len(data) == 0 {
			break
		}
		f, k := binary.Uvarint(data)
		if k <= 0 || len(freqs) == 1<<16 {
			return nil, false
		}
		data = data[k:]
		freqs = append(freqs, f)
	}
	return freqs, true
}

// FuzzBuild holds Build to refBuild on arbitrary tables, seeded with every
// kind the differential test draws, and to ErrFreqTotal on the tables whose
// sum reaches 2^57.
func FuzzBuild(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for range 24 {
		f.Add(encodeTable(buildTable(rng)))
	}
	f.Add(encodeTable([]uint64{1<<56 - 1, 1 << 56}))
	f.Add(encodeTable([]uint64{1 << 56, 1 << 56}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var b Builder
		freqs, ok := decodeTable(data)
		if !ok {
			t.Skip()
		}
		var total uint64
		for _, fq := range freqs {
			if total+fq < total || total+fq >= maxFreqTotal {
				if _, err := b.Build(freqs); err != ErrFreqTotal {
					t.Fatalf("sum at or over 2^57: err %v, want ErrFreqTotal", err)
				}
				return
			}
			total += fq
		}
		if !sameLengths(t, &b, freqs) {
			t.Fatal("lengths differ from the reference")
		}
	})
}

// BenchmarkBuild times one reused Builder on the tables sz builds per
// partition: NYX-shaped (about 60 of the 2^16 symbols used), HACC-shaped
// (about 2,350), and a full alphabet with every symbol used.
func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	full := make([]uint64, 1<<16)
	for i := range full {
		full[i] = uint64(1 + rng.Intn(10000))
	}
	for _, tc := range []struct {
		name  string
		freqs []uint64
	}{
		{"nyx", partitionHistogram(rng, "nyx")},
		{"hacc", partitionHistogram(rng, "hacc")},
		{"full", full},
	} {
		b.Run(tc.name, func(b *testing.B) {
			used := 0
			for _, f := range tc.freqs {
				if f != 0 {
					used++
				}
			}
			var bld Builder
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bld.Build(tc.freqs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(used), "used")
		})
	}
}
