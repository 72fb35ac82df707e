package lossless

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, src []byte, opts Options) []byte {
	t.Helper()
	comp := Compress(src, opts)
	got, err := Decompress(comp)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: len(got)=%d len(src)=%d", len(got), len(src))
	}
	return comp
}

func TestEmpty(t *testing.T) {
	comp := roundTrip(t, nil, Options{})
	if len(comp) == 0 {
		t.Fatal("empty input must still produce a parsable stream")
	}
}

func TestSingleByte(t *testing.T) {
	roundTrip(t, []byte{42}, Options{})
}

func TestShortInputs(t *testing.T) {
	for n := 0; n <= 8; n++ {
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i * 37)
		}
		roundTrip(t, src, Options{})
	}
}

func TestAllSameByte(t *testing.T) {
	src := bytes.Repeat([]byte{7}, 100000)
	comp := roundTrip(t, src, Options{})
	if r := Ratio(len(src), len(comp)); r < 50 {
		t.Fatalf("constant input should compress hugely; ratio %.1f", r)
	}
}

func TestRepetitiveText(t *testing.T) {
	src := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 500))
	comp := roundTrip(t, src, Options{})
	if r := Ratio(len(src), len(comp)); r < 5 {
		t.Fatalf("repetitive text should compress well; ratio %.2f", r)
	}
}

func TestIncompressibleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := make([]byte, 1<<16)
	rng.Read(src)
	comp := roundTrip(t, src, Options{})
	// Random bytes cost the length word and nothing else.
	if len(comp) > len(src)+storedOverhead {
		t.Fatalf("random input expanded too much: %d -> %d", len(src), len(comp))
	}
}

func TestLongMatchRun(t *testing.T) {
	// A long run exercises maxMatch segmentation and skip-ahead insertion.
	src := append(bytes.Repeat([]byte{1, 2, 3, 4}, 5000), 0xFF)
	roundTrip(t, src, Options{})
}

func TestMatchAtWindowEdge(t *testing.T) {
	opts := Options{WindowSize: 1 << 10, MaxChainLen: 32}
	pattern := []byte("abcdefgh12345678")
	var src []byte
	src = append(src, pattern...)
	// Push the pattern exactly to the edge of the window and beyond.
	filler := make([]byte, 1<<10)
	rng := rand.New(rand.NewSource(2))
	rng.Read(filler)
	src = append(src, filler...)
	src = append(src, pattern...)
	roundTrip(t, src, opts)
}

func TestLazyVsGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := make([]byte, 1<<15)
	// Structured data with embedded repeats.
	for i := range src {
		src[i] = byte((i / 7) % 31)
	}
	rng.Read(src[1<<14:])
	lazy := roundTrip(t, src, Options{LazyMatching: true})
	greedy := roundTrip(t, src, Options{LazyMatching: false})
	// Both must round-trip; lazy should never be dramatically worse.
	if len(lazy) > len(greedy)*11/10 {
		t.Fatalf("lazy %d much worse than greedy %d", len(lazy), len(greedy))
	}
}

func TestWindowNormalization(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 32 << 10}, {100, 1 << 10}, {3000, 2048}, {1 << 20, 32 << 10},
		{4096, 4096},
	}
	for _, c := range cases {
		got := (Options{WindowSize: c.in}).normalized().WindowSize
		if got != c.want {
			t.Errorf("normalize(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestDecompressCorrupt(t *testing.T) {
	src := []byte(strings.Repeat("hello world ", 100))
	comp := Compress(src, Options{})
	// Truncations must error, never panic or fabricate data.
	for _, cut := range []int{1, len(comp) / 2, len(comp) - 1} {
		if _, err := Decompress(comp[:cut]); err == nil {
			t.Errorf("truncation at %d: expected error", cut)
		}
	}
	// Bit flips in the payload must be detected (length mismatch or decode
	// failure) or decode to the wrong bytes — but never panic.
	for i := 16; i < len(comp); i += 7 {
		mut := append([]byte(nil), comp...)
		mut[i] ^= 0x10
		out, err := Decompress(mut)
		if err == nil && bytes.Equal(out, src) {
			// A flip that still round-trips identically would indicate
			// dead bits in the format; tolerate only trailing padding.
			if i < len(comp)-2 {
				t.Errorf("bit flip at %d silently ignored", i)
			}
		}
	}
}

func TestDecompressGarbageHeader(t *testing.T) {
	if _, err := Decompress([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("expected error on absurd header length")
	}
	if _, err := Decompress(nil); err == nil {
		t.Fatal("expected error on empty input")
	}
}

func TestLengthCodeTables(t *testing.T) {
	// Every length in [3,258] must map to a code whose base+extra range
	// covers it.
	for l := minMatch; l <= maxMatch; l++ {
		c := lengthCode(l)
		lo := lenBase[c]
		hi := lo + (1 << lenExtra[c]) - 1
		if c == 28 {
			hi = 258
		}
		if l < lo || l > hi {
			t.Fatalf("length %d mapped to code %d [%d,%d]", l, c, lo, hi)
		}
	}
	for d := 1; d <= 32768; d++ {
		c := distCode(d)
		lo := distBase[c]
		hi := lo + (1 << distExtra[c]) - 1
		if d < lo || d > hi {
			t.Fatalf("dist %d mapped to code %d [%d,%d]", d, c, lo, hi)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, structured bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8192)
		src := make([]byte, n)
		if structured {
			for i := range src {
				src[i] = byte((i * i / 13) % 17)
			}
		} else {
			rng.Read(src)
		}
		comp := Compress(src, Options{})
		out, err := Decompress(comp)
		return err == nil && bytes.Equal(out, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.6, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Ablation bench: window size vs ratio and speed (DESIGN.md §5).
func BenchmarkCompressWindow(b *testing.B) {
	src := make([]byte, 1<<18)
	for i := range src {
		src[i] = byte((i / 11) % 61)
	}
	for _, win := range []int{1 << 10, 4 << 10, 32 << 10} {
		b.Run(byteSize(win), func(b *testing.B) {
			opts := Options{WindowSize: win}
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			var compLen int
			for i := 0; i < b.N; i++ {
				compLen = len(Compress(src, opts))
			}
			b.ReportMetric(Ratio(len(src), compLen), "ratio")
		})
	}
}

func byteSize(n int) string {
	return fmt.Sprintf("%dKiB", n>>10)
}
