package huffman

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lcpio/internal/bitstream"
)

// readTable reads a table with no alphabet bound of its own, as a caller
// that trusts its stream would.
func readTable(r *bitstream.Reader) (*Code, error) {
	c := &Code{}
	var lens []uint8
	if err := ReadTableInto(r, c, &lens, maxTableSyms); err != nil {
		return nil, err
	}
	return c, nil
}

// codebookEntropy returns the Shannon entropy (bits/symbol) of a frequency
// table: the reference TestQuickOptimality holds the code lengths to.
func codebookEntropy(freqs []uint64) float64 {
	var total uint64
	for _, f := range freqs {
		total += f
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, f := range freqs {
		if f == 0 {
			continue
		}
		p := float64(f) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

func roundTrip(t *testing.T, freqs []uint64, stream []int) {
	t.Helper()
	c, err := Build(freqs)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	w := bitstream.NewWriter(0)
	c.WriteTable(w)
	for _, s := range stream {
		c.Encode(w, s)
	}
	r := bitstream.NewReader(w.Bytes())
	c2, err := readTable(r)
	if err != nil {
		t.Fatalf("readTable: %v", err)
	}
	for i, want := range stream {
		got, err := c2.Decode(r)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("decode %d: got %d want %d", i, got, want)
		}
	}
}

func TestSingleSymbol(t *testing.T) {
	roundTrip(t, []uint64{0, 5, 0}, []int{1, 1, 1, 1})
}

func TestTwoSymbols(t *testing.T) {
	roundTrip(t, []uint64{3, 7}, []int{0, 1, 1, 0, 1})
}

func TestEmptyAlphabetRejected(t *testing.T) {
	if _, err := Build([]uint64{0, 0, 0}); err != ErrNoSymbols {
		t.Fatalf("expected ErrNoSymbols, got %v", err)
	}
	if _, err := Build(nil); err != ErrNoSymbols {
		t.Fatalf("nil freqs: expected ErrNoSymbols, got %v", err)
	}
}

func TestSkewedDistribution(t *testing.T) {
	// Heavily skewed frequencies exercise long codes.
	freqs := make([]uint64, 20)
	f := uint64(1)
	for i := range freqs {
		freqs[i] = f
		f *= 2
	}
	stream := make([]int, 500)
	rng := rand.New(rand.NewSource(1))
	for i := range stream {
		stream[i] = rng.Intn(20)
	}
	roundTrip(t, freqs, stream)
}

func TestFibonacciWorstCase(t *testing.T) {
	// Fibonacci frequencies generate maximal code lengths; with >32 symbols
	// this forces the length-limiting/flattening path.
	freqs := make([]uint64, 40)
	a, b := uint64(1), uint64(1)
	for i := range freqs {
		freqs[i] = a
		a, b = b, a+b
	}
	c, err := Build(freqs)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if c.maxLen > MaxCodeLen {
		t.Fatalf("maxLen %d exceeds cap %d", c.maxLen, MaxCodeLen)
	}
	stream := []int{0, 39, 20, 5, 39, 0, 1}
	roundTrip(t, freqs, stream)
}

func TestCanonicalOrdering(t *testing.T) {
	// Symbols with equal lengths must receive increasing codes by symbol id.
	c, err := FromLengths([]uint8{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		if c.codes[s] != uint32(s) {
			t.Fatalf("symbol %d: code %d, want %d", s, c.codes[s], s)
		}
	}
	syms := c.sortedSymbols()
	if len(syms) != 4 {
		t.Fatalf("sortedSymbols len %d", len(syms))
	}
}

func TestFromLengthsKraftViolation(t *testing.T) {
	// Three 1-bit codes violate Kraft.
	if _, err := FromLengths([]uint8{1, 1, 1}); err != ErrBadLengths {
		t.Fatalf("expected ErrBadLengths, got %v", err)
	}
}

func TestFromLengthsOverlongRejected(t *testing.T) {
	if _, err := FromLengths([]uint8{40}); err != ErrBadLengths {
		t.Fatalf("expected ErrBadLengths, got %v", err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	// An incomplete code leaves some codewords undefined; feeding one of
	// them must yield ErrCorrupt, not a bogus symbol.
	c, err := FromLengths([]uint8{2, 2}) // codes 00 and 01; 1x undefined
	if err != nil {
		t.Fatal(err)
	}
	w := bitstream.NewWriter(0)
	w.WriteBits(0x3, 2) // code 11: not assigned
	w.WriteBits(0, 62)
	r := bitstream.NewReader(w.Bytes())
	if _, err := c.Decode(r); err != ErrCorrupt {
		t.Fatalf("expected ErrCorrupt, got %v", err)
	}
}

func TestEncodeUnusedSymbolPanics(t *testing.T) {
	c, err := Build([]uint64{5, 0, 5})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic encoding unused symbol")
		}
	}()
	c.Encode(bitstream.NewWriter(0), 1)
}

func TestHistogram(t *testing.T) {
	h := Histogram([]int{0, 1, 1, 3, 3, 3}, 4)
	want := []uint64{1, 2, 0, 3}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("hist[%d]=%d want %d", i, h[i], want[i])
		}
	}
}

func TestCodebookEntropy(t *testing.T) {
	// Uniform over 4 symbols: entropy exactly 2 bits.
	if h := codebookEntropy([]uint64{1, 1, 1, 1}); math.Abs(h-2) > 1e-12 {
		t.Fatalf("entropy %v, want 2", h)
	}
	if h := codebookEntropy(nil); h != 0 {
		t.Fatalf("empty entropy %v", h)
	}
	if h := codebookEntropy([]uint64{9}); h != 0 {
		t.Fatalf("single-symbol entropy %v", h)
	}
}

// Property: average code length is within 1 bit of entropy (Huffman bound)
// for random distributions, and always round-trips.
func TestQuickOptimality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 2
		freqs := make([]uint64, n)
		var total uint64
		for i := range freqs {
			freqs[i] = uint64(rng.Intn(1000))
			total += freqs[i]
		}
		if total == 0 {
			freqs[0] = 1
			total = 1
		}
		c, err := Build(freqs)
		if err != nil {
			return false
		}
		var avg float64
		for s, fq := range freqs {
			if fq > 0 {
				avg += float64(fq) / float64(total) * float64(c.lens[s])
			}
		}
		h := codebookEntropy(freqs)
		// Huffman is within 1 bit of entropy (plus a hair for the 1-bit
		// minimum on single-symbol alphabets).
		return avg <= h+1.0+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 1.5, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: encode/decode round-trips for random streams.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 1
		freqs := make([]uint64, n)
		for i := range freqs {
			freqs[i] = uint64(rng.Intn(100) + 1)
		}
		c, err := Build(freqs)
		if err != nil {
			return false
		}
		stream := make([]int, rng.Intn(400))
		for i := range stream {
			stream[i] = rng.Intn(n)
		}
		w := bitstream.NewWriter(0)
		c.WriteTable(w)
		for _, s := range stream {
			c.Encode(w, s)
		}
		r := bitstream.NewReader(w.Bytes())
		c2, err := readTable(r)
		if err != nil {
			return false
		}
		for _, want := range stream {
			got, err := c2.Decode(r)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 1, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	freqs := make([]uint64, 65536)
	for i := range freqs {
		freqs[i] = uint64(rng.Intn(10000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(freqs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	freqs := make([]uint64, 256)
	for i := range freqs {
		freqs[i] = uint64(rng.Intn(1000) + 1)
	}
	c, err := Build(freqs)
	if err != nil {
		b.Fatal(err)
	}
	stream := make([]int, 4096)
	for i := range stream {
		stream[i] = rng.Intn(256)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := bitstream.NewWriter(8192)
		for _, s := range stream {
			c.Encode(w, s)
		}
		r := bitstream.NewReader(w.Bytes())
		for range stream {
			if _, err := c.Decode(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}
