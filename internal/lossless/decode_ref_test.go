package lossless

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"lcpio/internal/bitstream"
	"lcpio/internal/huffman"
)

// refCode is a canonical Huffman decoder built from code lengths alone and
// decoded one bit per ReadBit — independent of package huffman's tables, so
// the differential below checks the table-driven decoder against the
// definition of the code, not against itself.
type refCode struct {
	maxLen int
	first  [huffman.MaxCodeLen + 2]uint64 // first code of each length
	count  [huffman.MaxCodeLen + 2]uint64
	offset [huffman.MaxCodeLen + 2]int // index into syms of each length's first symbol
	syms   []int                       // symbols in (length, symbol) order
}

// refReadTable parses a table written by huffman.(*Code).WriteTable, with
// ReadTableInto's error for every malformed case.
func refReadTable(r *bitstream.Reader, maxSyms int) (*refCode, error) {
	n64, err := r.ReadBits(32)
	if err != nil {
		return nil, err
	}
	n := int(n64)
	if n > maxSyms {
		return nil, huffman.ErrCorrupt
	}
	lens := make([]uint8, n)
	for i := 0; i < n; {
		tag, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		if tag == 0 {
			run, err := r.ReadBits(16)
			if err != nil {
				return nil, err
			}
			if run == 0 || i+int(run) > n {
				return nil, huffman.ErrCorrupt
			}
			i += int(run)
			continue
		}
		l, err := r.ReadBits(6)
		if err != nil {
			return nil, err
		}
		if l == 0 || l > huffman.MaxCodeLen {
			return nil, huffman.ErrCorrupt
		}
		lens[i] = uint8(l)
		i++
	}
	c := &refCode{}
	used := 0
	for _, l := range lens {
		if l > 0 {
			c.count[l]++
			used++
			if int(l) > c.maxLen {
				c.maxLen = int(l)
			}
		}
	}
	if used == 0 {
		return nil, huffman.ErrNoSymbols
	}
	var kraft uint64
	for l := 1; l <= c.maxLen; l++ {
		kraft += c.count[l] << (huffman.MaxCodeLen - l)
	}
	if kraft > 1<<huffman.MaxCodeLen {
		return nil, huffman.ErrBadLengths
	}
	var code uint64
	idx := 0
	for l := 1; l <= c.maxLen; l++ {
		c.first[l] = code
		c.offset[l] = idx
		for s, sl := range lens {
			if int(sl) == l {
				c.syms = append(c.syms, s)
			}
		}
		idx += int(c.count[l])
		code = (code + c.count[l]) << 1
	}
	return c, nil
}

func (c *refCode) decode(r *bitstream.Reader) (int, error) {
	var code uint64
	for l := 1; l <= c.maxLen; l++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint64(b)
		if code >= c.first[l] && code < c.first[l]+c.count[l] {
			return c.syms[c.offset[l]+int(code-c.first[l])], nil
		}
	}
	return 0, huffman.ErrCorrupt
}

// refDecompress is the decode loop as it stood before the word-at-a-time
// rewrite — bit-serial Huffman, one append per match byte — with every
// hostile-input check in the same order, and the stored form read the same
// way: a byte at a time. It returns the reader so tests can compare the
// final bit position too.
func refDecompress(dst, buf []byte) ([]byte, *bitstream.Reader, error) {
	r := bitstream.NewReader(buf)
	n64, err := r.ReadBits(64)
	if err != nil {
		return nil, r, err
	}
	if n64>>63 == 1 {
		if n64<<1>>1 != uint64(len(buf)-8) {
			return nil, r, ErrCorrupt
		}
		for _, b := range buf[8:] {
			dst = append(dst, b)
		}
		return dst, r, nil
	}
	if n64 > 1<<40 {
		return nil, r, ErrCorrupt
	}
	rawLen := int(n64)
	if rawLen > len(buf)*MaxExpansion+1024 {
		return nil, r, ErrCorrupt
	}
	hasDist, err := r.ReadBool()
	if err != nil {
		return nil, r, err
	}
	litLenCode, err := refReadTable(r, numLitLen)
	if err != nil {
		return nil, r, err
	}
	var distTab *refCode
	if hasDist {
		distTab, err = refReadTable(r, numDistSyms)
		if err != nil {
			return nil, r, err
		}
	}
	base := len(dst)
	out := dst
	for {
		s, err := litLenCode.decode(r)
		if err != nil {
			return nil, r, err
		}
		switch {
		case s < 256:
			out = append(out, byte(s))
		case s == symEOB:
			if len(out)-base != rawLen {
				return nil, r, ErrCorrupt
			}
			return out, r, nil
		default:
			lc := s - symLenBase
			if lc >= 29 || distTab == nil {
				return nil, r, ErrCorrupt
			}
			extra, err := r.ReadBits(lenExtra[lc])
			if err != nil {
				return nil, r, err
			}
			length := lenBase[lc] + int(extra)
			ds, err := distTab.decode(r)
			if err != nil {
				return nil, r, err
			}
			dextra, err := r.ReadBits(distExtra[ds])
			if err != nil {
				return nil, r, err
			}
			dist := distBase[ds] + int(dextra)
			if dist > len(out)-base {
				return nil, r, ErrCorrupt
			}
			if len(out)-base+length > rawLen {
				return nil, r, ErrCorrupt
			}
			start := len(out) - dist
			for i := 0; i < length; i++ {
				out = append(out, out[start+i])
			}
		}
		if len(out)-base > rawLen {
			return nil, r, ErrCorrupt
		}
	}
}

// errClass maps an error to the sentinel it wraps, so "same error class" is
// one comparison.
func errClass(err error) error {
	for _, class := range []error{bitstream.ErrOverrun, ErrCorrupt, huffman.ErrCorrupt,
		huffman.ErrBadLengths, huffman.ErrNoSymbols} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}

// diffDecompress requires the decoder and the reference to agree on buf:
// both fail with the same error class, or both succeed with the same bytes
// and the same reader position. The dst prefix must come back untouched.
func diffDecompress(t *testing.T, buf []byte, what string) (ok bool) {
	t.Helper()
	prefix := []byte("prefix the match window must never reach")
	want, wr, werr := refDecompress(append([]byte(nil), prefix...), buf)
	st := new(decState)
	got, gerr := st.decompress(append([]byte(nil), prefix...), buf)
	if errClass(gerr) != errClass(werr) {
		t.Fatalf("%s: err %v, reference %v", what, gerr, werr)
	}
	if werr != nil {
		return false
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes differ from the reference's %d", what, len(got), len(want))
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("%s: dst prefix was overwritten", what)
	}
	if st.r.BitsRemaining() != wr.BitsRemaining() {
		t.Fatalf("%s: reader has %d bits left, reference %d", what, st.r.BitsRemaining(), wr.BitsRemaining())
	}
	return true
}

// deflated returns src's deflate form whether or not it is the smaller one.
// The decoder reads any well-formed deflate stream, so its corpus is not
// limited to the inputs on which the encoder keeps that form.
func deflated(src []byte) []byte {
	st := encPool.Get().(*encState)
	defer encPool.Put(st)
	return append([]byte(nil), st.deflate(src, Defaults())...)
}

// noisyBytes is what the sz stage hands this one on a noisy field: Huffman
// output, close to uniform, with just enough skew and the odd short repeat
// that the matcher finds little and the ratio sits at 1.
func noisyBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(rng.Intn(256))
		if rng.Intn(16) == 0 {
			src[i] &= 0x3F
		}
	}
	for i := 64; i+8 < n; i += 997 {
		copy(src[i:i+5], src[i-40:])
	}
	return src
}

// matchCorpus is inputs chosen for the match copy's three regimes plus the
// ordinary mix; hit recognises the (length, distance) relation the
// tokenizer must actually have produced for the input to count.
var matchCorpus = []struct {
	name string
	src  func() []byte
	hit  func(length, dist int) bool
}{
	{"rle-dist1", func() []byte { return bytes.Repeat([]byte{7}, 5000) },
		func(l, d int) bool { return d == 1 && l == maxMatch }},
	{"period3-overlap", func() []byte { return bytes.Repeat([]byte("abc"), 700) },
		func(l, d int) bool { return d == 3 && d < l }},
	{"period7-overlap", func() []byte { return bytes.Repeat([]byte("abcdefg"), 300) },
		func(l, d int) bool { return d == 7 && d < l }},
	{"dist-equals-length", func() []byte {
		return append(append([]byte("0123456789ABCDEFGHIJ"), "0123456789ABCDEFGHIJ"...), "xyz"...)
	}, func(l, d int) bool { return d == l }},
	{"far-match", func() []byte {
		src := noisyBytes(20000, 3)
		copy(src[19000:19200], src[100:300])
		return src
	}, func(l, d int) bool { return d > 4*l && l > 100 }},
	{"text", func() []byte {
		return bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog; "), 90)
	}, nil},
	{"noisy", func() []byte { return noisyBytes(8000, 4) }, nil},
	{"empty", func() []byte { return nil }, nil},
	{"one-literal", func() []byte { return []byte{42} }, nil},
}

// TestDecompressMatchesReference: the rewritten decode loop against the
// bit-serial one on every corpus stream and on every byte-prefix of it —
// a truncated stream must fail, with the reference's error class.
func TestDecompressMatchesReference(t *testing.T) {
	for _, tc := range matchCorpus {
		src := tc.src()
		if tc.hit != nil {
			st := encPool.Get().(*encState)
			tokenizeInto(st, src, Defaults())
			found := false
			for _, tok := range st.tokens {
				if !tok.isLiteral() && tc.hit(tok.matchLen(), tok.matchDist()) {
					found = true
				}
			}
			encPool.Put(st)
			if !found {
				t.Fatalf("%s: tokenizer produced no match of the kind this case is for", tc.name)
			}
		}
		// Both forms of every input: the deflate stream, and what Compress
		// writes, which for five of the nine is the stored form.
		for _, comp := range [][]byte{deflated(src), Compress(src, Options{})} {
			if !diffDecompress(t, comp, tc.name) {
				t.Fatalf("%s: valid stream rejected", tc.name)
			}
			got, err := Decompress(comp)
			if err != nil || !bytes.Equal(got, src) {
				t.Fatalf("%s: round trip failed: %v", tc.name, err)
			}
			for cut := 0; cut < len(comp); cut++ {
				// Every prefix through the header and tables and at the tail;
				// the long literal middle of the big streams is sampled.
				if cut > 800 && cut < len(comp)-100 && cut%53 != 0 {
					continue
				}
				if diffDecompress(t, comp[:cut], tc.name+" prefix") {
					t.Fatalf("%s: %d-byte prefix of a %d-byte stream decoded", tc.name, cut, len(comp))
				}
			}
		}
	}
}

// TestAppendMatchEveryOverlap checks the chunked match copy against the
// byte-at-a-time definition for every distance and length around the
// overlap boundary, including distances far shorter than the match.
func TestAppendMatchEveryOverlap(t *testing.T) {
	history := make([]byte, 300)
	for i := range history {
		history[i] = byte(i*7 + 1)
	}
	for dist := 1; dist <= len(history); dist++ {
		if dist > 40 && dist%37 != 0 && dist != len(history) {
			continue
		}
		for length := minMatch; length <= maxMatch; length++ {
			want := append([]byte(nil), history...)
			for i := 0; i < length; i++ {
				want = append(want, want[len(history)-dist+i])
			}
			got := appendMatch(append([]byte(nil), history...), dist, length)
			if !bytes.Equal(got, want) {
				t.Fatalf("dist %d length %d: chunked copy differs from byte copy", dist, length)
			}
		}
	}
}

// TestDecompressRejectsOversizedTables: a table claiming more symbols than
// the token alphabet would let a decoded symbol index past the base/extra
// arrays (and would park a forged-size table in the decoder pool).
func TestDecompressRejectsOversizedTables(t *testing.T) {
	lens := make([]uint8, numDistSyms+2)
	for i := range lens {
		lens[i] = 5
	}
	wide, err := huffman.FromLengths(lens)
	if err != nil {
		t.Fatal(err)
	}
	lit := make([]uint8, numLitLen)
	for i := range lit {
		lit[i] = 9
	}
	litCode, err := huffman.FromLengths(lit)
	if err != nil {
		t.Fatal(err)
	}
	w := bitstream.NewWriter(0)
	w.WriteBits(300, 64) // rawLen, little-endian bytes read back as a 64-bit word
	w.WriteBool(true)
	litCode.WriteTable(w)
	wide.WriteTable(w)
	litCode.Encode(w, 'a')
	litCode.Encode(w, symLenBase) // length 3
	wide.Encode(w, numDistSyms+1) // a distance symbol the format does not have
	litCode.Encode(w, symEOB)
	if _, err := Decompress(w.Bytes()); !errors.Is(err, huffman.ErrCorrupt) {
		t.Fatalf("oversized distance table: err %v, want huffman.ErrCorrupt", err)
	}
}

// TestAppendDecompressSteadyStateAllocs pins the pooled decoder state: into
// a dst with room, a warm AppendDecompress allocates nothing — no per-stream
// Code, length buffer or decode table.
func TestAppendDecompressSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	for _, src := range [][]byte{noisyBytes(1<<16, 9), bytes.Repeat([]byte("abcdefgh"), 4096)} {
		comp := deflated(src) // Compress would store the noisy one
		dst := make([]byte, 0, len(src))
		var err error
		allocs := testing.AllocsPerRun(50, func() {
			dst, err = AppendDecompress(dst[:0], comp)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("warm AppendDecompress into a pre-sized dst allocates %.0f times/op; want 0", allocs)
		}
	}
}

// losslessSeeds are the streams the differential fuzz target starts from:
// the corpus above, and the sz golden streams and reconstructions pushed
// through this stage (wire bytes close to what it sees in production: the
// former near-incompressible, the latter float fields full of matches).
func losslessSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, tc := range matchCorpus {
		seeds = append(seeds, deflated(tc.src()))
	}
	goldens, err := filepath.Glob(filepath.Join("..", "sz", "testdata", "golden_v4_*"))
	if err != nil || len(goldens) == 0 {
		tb.Fatalf("no sz goldens to seed from: %v", err)
	}
	// Three decoded float images from the zfp goldens stand in for the
	// images of the retired sz streams (order-0, order-2, float64), which
	// were deleted with their configuration: the corpus keeps its raw-float
	// inputs and its size. They are the pre-search encoder's images, which
	// stay committed as decode-only fixtures, so the corpus does not move
	// when the zfp encoder does.
	for _, name := range []string{"golden_v3_presearch_acc_2d.f32.recon", "golden_v3_presearch_acc_3d.f32.recon",
		"golden_v3_presearch_acc_1d.f32.recon"} {
		goldens = append(goldens, filepath.Join("..", "zfp", "testdata", name))
	}
	for _, path := range goldens {
		raw, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		if len(raw) > 1<<15 {
			raw = raw[:1<<15]
		}
		seeds = append(seeds, deflated(raw))
	}
	return seeds
}

// storedStreams returns well-formed stored streams — short, 64 KiB and
// zero-length — and forgeries of them: every byte-prefix of the short one,
// the long one cut short or with its length word off by one either way or
// at 2^63-1, and a deflate stream with the stored flag forced on.
func storedStreams(tb testing.TB) (valid, forged [][]byte) {
	short := Compress(noisyBytes(40, 5), Defaults())
	long := Compress(noisyBytes(1<<16, 9), Defaults())
	empty := Compress(nil, Defaults())
	valid = [][]byte{short, long, empty}
	for _, s := range valid {
		if !Stored(s) {
			tb.Fatalf("%d-byte stream is not in the stored form", len(s))
		}
	}
	for cut := 0; cut < len(short); cut++ {
		forged = append(forged, short[:cut])
	}
	withWord := func(s []byte, word uint64) []byte {
		out := append([]byte(nil), s...)
		binary.BigEndian.PutUint64(out, word)
		return out
	}
	n := uint64(len(long) - storedOverhead)
	flagged := deflated(bytes.Repeat([]byte("hello world "), 100))
	flagged[0] |= 0x80
	forged = append(forged,
		long[:len(long)-1],
		withWord(long, storedFlag|(n+1)),
		withWord(long, storedFlag|(n-1)),
		withWord(long, 1<<64-1),
		flagged)
	return valid, forged
}

// TestStoredFormHostile: every forged stored stream is refused as corrupt
// (or, shorter than its length word, as overrun) before its payload is
// copied anywhere; the well-formed ones round-trip.
func TestStoredFormHostile(t *testing.T) {
	valid, forged := storedStreams(t)
	for _, s := range valid {
		got, err := Decompress(s)
		if err != nil || !bytes.Equal(got, s[storedOverhead:]) {
			t.Fatalf("%d-byte stored stream: err %v, payload intact %v", len(s), err, bytes.Equal(got, s[storedOverhead:]))
		}
	}
	for i, s := range forged {
		// TotalAlloc counts the whole process: the least of three attempts
		// is the decoder's own.
		least := ^uint64(0)
		for try := 0; try < 3 && least > 4096; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decompress(s)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, bitstream.ErrOverrun) {
				t.Fatalf("forged stream %d (%d bytes): err %v, want ErrCorrupt or ErrOverrun", i, len(s), err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > 4096 {
			t.Errorf("forged stream %d (%d bytes): refusal allocated %d bytes", i, len(s), least)
		}
	}
}

// FuzzLosslessDifferential: on any bytes the decoder and the bit-serial
// reference agree — same output and reader position, or the same error
// class — and neither panics.
func FuzzLosslessDifferential(f *testing.F) {
	for _, s := range losslessSeeds(f) {
		f.Add(s)
		f.Add(s[:len(s)/2])
		flip := append([]byte(nil), s...)
		flip[len(flip)*2/3] ^= 0x10
		f.Add(flip)
	}
	valid, forged := storedStreams(f)
	for _, s := range append(valid, forged...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		diffDecompress(t, in, "fuzz input")
	})
}

func BenchmarkDecompress(b *testing.B) {
	// repetitive is nearly all long matches; noisy is literal after literal,
	// ratio ~1, where the Huffman decode, not the match copy, sets the speed.
	// The encoder stores such input now; sets written before it did are read
	// through this loop, so the benchmark keeps the deflate form.
	for _, tc := range []struct {
		name string
		src  []byte
	}{{"repetitive", repetitiveBytes(1 << 18)}, {"noisy", noisyBytes(1<<18, 1)}} {
		b.Run(tc.name, func(b *testing.B) {
			comp := deflated(tc.src)
			dst := make([]byte, 0, len(tc.src))
			b.SetBytes(int64(len(tc.src)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if dst, err = AppendDecompress(dst[:0], comp); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(tc.src))/float64(len(comp)), "ratio")
		})
	}
}
