package huffman

import (
	"errors"
	"math/rand"
	"testing"

	"lcpio/internal/bitstream"
)

// refDecode is the bit-serial canonical walk Decode used before it became
// table-driven: one ReadBit per code bit, testing each length's code range
// in turn. It is the reference the word-at-a-time decoder must agree with —
// symbol, error class and reader position. One correction against the walk
// as it shipped: the range end is widened to 64 bits, because first+count is
// exactly 2^32 for the last codes of a complete 32-bit-deep tree and the
// uint32 sum wrapped to 0, rejecting them (TestDecodeDeepestCompleteTree).
func refDecode(c *Code, r *bitstream.Reader) (int, error) {
	var code uint32
	for l := uint8(1); l <= c.maxLen; l++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint32(b)
		first := c.firstCode[l]
		count := uint32(c.firstSym[l+1] - c.firstSym[l])
		if count > 0 && code >= first && uint64(code) < uint64(first)+uint64(count) {
			return int(c.symsByCode[uint32(c.firstSym[l])+(code-first)]), nil
		}
	}
	return 0, ErrCorrupt
}

// randomLengths draws a length set with the given longest code: a random
// walk down the code tree that keeps the Kraft sum <= 1. complete fills the
// tree (every prefix decodes); otherwise some of it is left unassigned so
// hostile prefixes exist.
func randomLengths(rng *rand.Rand, maxLen int, complete bool) []uint8 {
	// Leaves of a full binary tree grown by splitting random leaves until one
	// reaches maxLen; every leaf depth is then a code length.
	depths := []uint8{1, 1}
	if maxLen == 1 {
		if !complete {
			depths = depths[:1]
		}
		return depths
	}
	for {
		i := rng.Intn(len(depths))
		// Bias toward the deepest leaf so long tails actually appear.
		if rng.Intn(3) > 0 {
			for j, d := range depths {
				if d > depths[i] {
					i = j
				}
			}
		}
		if int(depths[i]) >= maxLen {
			break
		}
		depths[i]++
		depths = append(depths, depths[i])
		if int(depths[i]) == maxLen && (len(depths) > 40 || rng.Intn(4) == 0) {
			break
		}
	}
	if !complete {
		// Drop a few leaves: their prefixes now match no code.
		for k := 0; k < 1+rng.Intn(3) && len(depths) > 1; k++ {
			i := rng.Intn(len(depths))
			depths = append(depths[:i], depths[i+1:]...)
		}
	}
	rng.Shuffle(len(depths), func(i, j int) { depths[i], depths[j] = depths[j], depths[i] })
	// Sprinkle unused symbols through the alphabet.
	lens := make([]uint8, 0, len(depths)*2)
	for _, d := range depths {
		for rng.Intn(3) == 0 {
			lens = append(lens, 0)
		}
		lens = append(lens, d)
	}
	return lens
}

// diffDecode decodes buf with the reference walk and with Decode until the
// first error, requiring identical symbols, identical bit positions after
// every symbol, and the same terminating error.
func diffDecode(t *testing.T, c *Code, buf []byte, what string) {
	t.Helper()
	ref := bitstream.NewReader(buf)
	got := bitstream.NewReader(buf)
	for i := 0; ; i++ {
		ws, werr := refDecode(c, ref)
		gs, gerr := c.Decode(got)
		if !errors.Is(gerr, werr) || (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: symbol %d: err %v, reference %v", what, i, gerr, werr)
		}
		if werr != nil {
			return
		}
		if gs != ws {
			t.Fatalf("%s: symbol %d = %d, reference %d", what, i, gs, ws)
		}
		if got.BitsRemaining() != ref.BitsRemaining() {
			t.Fatalf("%s: after symbol %d reader has %d bits left, reference %d",
				what, i, got.BitsRemaining(), ref.BitsRemaining())
		}
	}
}

// TestDecodeMatchesReference is the differential for the decode rewrite:
// random canonical codes with every longest length 1..32 — one-symbol
// alphabets, complete and incomplete trees, all-long-tail alphabets — over
// valid streams, every byte-prefix of them, and random bytes.
func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	check := func(lens []uint8, what string) {
		c, err := FromLengths(lens)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		var used []int
		for s, l := range lens {
			if l > 0 {
				used = append(used, s)
			}
		}
		w := bitstream.NewWriter(0)
		syms := make([]int, 64)
		for i := range syms {
			syms[i] = used[rng.Intn(len(used))]
		}
		c.EncodeAll(w, syms)
		valid := append([]byte(nil), w.Bytes()...)
		// The whole stream must decode to what was encoded before the
		// differential's run-to-error takes over in the padding.
		out := make([]int, len(syms))
		if err := c.DecodeAll(bitstream.NewReader(valid), out, len(lens)); err != nil {
			t.Fatalf("%s: DecodeAll: %v", what, err)
		}
		for i := range out {
			if out[i] != syms[i] {
				t.Fatalf("%s: DecodeAll symbol %d = %d, want %d", what, i, out[i], syms[i])
			}
		}
		for cut := 0; cut <= len(valid); cut++ {
			diffDecode(t, c, valid[:cut], what+" prefix")
		}
		junk := make([]byte, 96)
		for k := 0; k < 4; k++ {
			rng.Read(junk)
			diffDecode(t, c, junk, what+" random bytes")
		}
		diffDecode(t, c, make([]byte, 16), what+" zeros")
		ones := make([]byte, 16)
		for i := range ones {
			ones[i] = 0xFF
		}
		diffDecode(t, c, ones, what+" ones")
	}

	for maxLen := 1; maxLen <= MaxCodeLen; maxLen++ {
		for trial := 0; trial < 6; trial++ {
			check(randomLengths(rng, maxLen, trial%2 == 0), "random tree")
		}
		// One symbol, at every length the format can carry it.
		check([]uint8{0, uint8(maxLen), 0}, "one symbol")
	}
	// All-long-tail: every code is longer than the table index, so every
	// symbol takes the canonical-limit resolve (2^13 codes of 13 bits; and a
	// sparse 20-bit alphabet).
	all13 := make([]uint8, 1<<13)
	for i := range all13 {
		all13[i] = 13
	}
	check(all13, "all 13-bit")
	sparse20 := make([]uint8, 300)
	for i := range sparse20 {
		sparse20[i] = 20
	}
	check(sparse20, "sparse 20-bit")
	// The deepest tree Build produces from Fibonacci-like frequencies.
	fib := make([]uint64, 40)
	a, b := uint64(1), uint64(1)
	for i := range fib {
		fib[i] = a
		a, b = b, a+b
	}
	c, err := Build(fib)
	if err != nil {
		t.Fatal(err)
	}
	check(append([]uint8(nil), c.lens...), "fibonacci")
}

// TestDecodeDeepestCompleteTree pins the all-ones corner: in a complete tree
// whose deepest level is MaxCodeLen the last code is 2^32-1 and its range end
// 2^32, which the limits hold in 64 bits.
func TestDecodeDeepestCompleteTree(t *testing.T) {
	lens := make([]uint8, MaxCodeLen+1)
	for i := range lens {
		lens[i] = uint8(i + 1)
	}
	lens[MaxCodeLen] = MaxCodeLen // 1,2,...,31,32,32: Kraft sum exactly 1
	c, err := FromLengths(lens)
	if err != nil {
		t.Fatal(err)
	}
	syms := []int{MaxCodeLen, 0, MaxCodeLen - 1, MaxCodeLen, 5, MaxCodeLen - 1}
	w := bitstream.NewWriter(0)
	c.EncodeAll(w, syms)
	r := bitstream.NewReader(w.Bytes())
	for i, want := range syms {
		got, err := c.Decode(r)
		if err != nil || got != want {
			t.Fatalf("symbol %d = %d, %v; want %d", i, got, err, want)
		}
	}
}

// benchSymbols draws n symbols over a 2^16 alphabet: a geometric spike
// around the middle (the shape SZ quantization codes have) with `tail` of the
// draws spread uniformly over the whole alphabet, whose codes come out far
// longer than the decode table's index.
func benchSymbols(n int, tail float64) []int {
	const alphabet = 1 << 16
	rng := rand.New(rand.NewSource(5))
	syms := make([]int, n)
	for i := range syms {
		if rng.Float64() < tail {
			syms[i] = rng.Intn(alphabet)
			continue
		}
		d := int(rng.ExpFloat64() * 6)
		if rng.Intn(2) == 0 {
			d = -d
		}
		syms[i] = alphabet/2 + d
	}
	return syms
}

// BenchmarkDecode measures DecodeAll where the table probe answers nearly
// every symbol (concentrated) and where a third and more of them need the
// long-code resolve (longtail) — the regime a noisy field's wide residual
// alphabet puts the decoder in.
func BenchmarkDecode(b *testing.B) {
	for _, tc := range []struct {
		name string
		tail float64
	}{{"concentrated", 0}, {"longtail", 0.4}} {
		b.Run(tc.name, func(b *testing.B) {
			const alphabet = 1 << 16
			syms := benchSymbols(1<<18, tc.tail)
			c, err := Build(Histogram(syms, alphabet))
			if err != nil {
				b.Fatal(err)
			}
			long := 0
			for _, s := range syms {
				if c.lens[s] > lutIndexBits {
					long++
				}
			}
			w := bitstream.NewWriter(len(syms) * 2)
			c.EncodeAll(w, syms)
			coded := w.Bytes()
			out := make([]int, len(syms))
			var r bitstream.Reader
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reset(coded)
				if err := c.DecodeAll(&r, out, alphabet); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(syms))*float64(b.N)/1e6/b.Elapsed().Seconds(), "Msym/s")
			b.ReportMetric(float64(long)/float64(len(syms)), "long-share")
		})
	}
}
