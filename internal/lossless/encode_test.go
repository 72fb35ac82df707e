package lossless

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lcpio/internal/bitstream"
	"lcpio/internal/fpdata"
	"lcpio/internal/huffman"
)

// huffCoded is the kind of byte stream this stage sees in production, built
// the way bench/layers.go's entropy layer builds it: first differences of
// round(x/2eb) over an fpdata field at a range-relative bound, Huffman-coded
// over the sz quantizer's 2^16 alphabet. NYX at 1e-2 is a narrow alphabet at
// 3 bits per symbol — what 3-D Lorenzo leaves of NYX at the benchmark's 1e-3
// — whose coded bytes keep a few percent a byte coder can take; HACC at 1e-4
// is a wide one at 15 bits per symbol whose coded bytes are all but uniform.
func huffCoded(tb testing.TB, dataset string, rel float64, elems int) []byte {
	tb.Helper()
	spec, err := fpdata.Lookup(dataset, "")
	if err != nil {
		tb.Fatal(err)
	}
	f := fpdata.Generate(spec, spec.ScaleFor(elems), 1)
	lo, hi := f.Range()
	twoEB := 2 * rel * float64(hi-lo)
	const alphabet = 1 << 16
	syms := make([]int, len(f.Data))
	var prev int64
	for i, x := range f.Data {
		q := int64(math.Round(float64(x) / twoEB))
		syms[i] = int(min(max(q-prev+alphabet/2, 0), alphabet-1))
		prev = q
	}
	code, err := huffman.Build(huffman.Histogram(syms, alphabet))
	if err != nil {
		tb.Fatal(err)
	}
	w := bitstream.NewWriter(len(syms))
	code.EncodeAll(w, syms)
	return w.Bytes()
}

// repetitiveBytes is the benchmarks' long-match input: period 671, every
// match at maximum length.
func repetitiveBytes(n int) []byte {
	src := make([]byte, n)
	for i := range src {
		src[i] = byte((i / 11) % 61)
	}
	return src
}

// encodeCorpus is the decode differential's corpus plus the inputs the
// encode side is sized on: the benchmarks' long-match and noisy inputs, the
// two production-shaped Huffman streams, and the degenerate ends (2 and 3
// bytes, all zero, uniformly random).
func encodeCorpus(tb testing.TB) []namedInput {
	var corpus []namedInput
	for _, tc := range matchCorpus {
		corpus = append(corpus, namedInput{tc.name, tc.src()})
	}
	random := make([]byte, 1<<16)
	rand.New(rand.NewSource(11)).Read(random)
	return append(corpus,
		namedInput{"two-bytes", []byte{1, 2}},
		namedInput{"three-bytes", []byte{1, 2, 3}},
		namedInput{"repetitive-256k", repetitiveBytes(1 << 18)},
		namedInput{"noisy-64k", noisyBytes(1<<16, 9)},
		namedInput{"huffcoded-nyx", huffCoded(tb, "NYX", 1e-2, 128<<10)},
		namedInput{"huffcoded-hacc", huffCoded(tb, "HACC", 1e-4, 128<<10)},
		namedInput{"zero-64k", make([]byte, 1<<16)},
		namedInput{"random-64k", random},
	)
}

type namedInput struct {
	name string
	src  []byte
}

// parentSHA is SHA-256 of Compress(x, Defaults()) for every corpus input,
// recorded at the commit before the encoder was touched, when every stream
// was a deflate stream.
var parentSHA = map[string]string{
	"rle-dist1":          "1f3c2384e608d1a49edc0d2ebd7d1b2e92beea1814307e09795c66eaf986a81a", // 38 bytes
	"period3-overlap":    "5187c31bd71cbf56d60419142338a0d8985b22a3838de93881fdf5055b304c71", // 45 bytes
	"period7-overlap":    "f64c2fe371283a60dc5979e625ec83e9ecac2d20fc0bc0c62212d92741d9e4b0", // 52 bytes
	"dist-equals-length": "c6855f3f19216ce27e3d1b286d9c6738e204985c3c7e4b108485f878b94ee60c", // 72 bytes
	"far-match":          "5cb3adc6e0ced346af96097ceabd2ea73396f4a38d80f8862e062e1a08b969e9", // 20010 bytes
	"text":               "b1234fa70e5e10cc85afed0babb8ede133e2aab5f91d9c69101c43bacd34771b", // 108 bytes
	"noisy":              "8f9d1de2293e6b18bb5e200eba25abdfb81b5c818701dd0811ff3a37727437c4", // 8225 bytes
	"empty":              "8a8df0d49fbaf48b7259c427e0040f7354486cc98d7febe093299bc1b8f6f2d3", // 18 bytes
	"one-literal":        "f4818383d2da1ff38bbd23a7bad456a9cc8aeffda4fee53259a4b265608cd292", // 21 bytes
	"two-bytes":          "632bb29723e6acf0734e24cb849834f09d1c90578d750fe8d009cf6c8bd45d54", // 22 bytes
	"three-bytes":        "6635dae87fe164c4149afae6ab302a316f38452357e2e66e954faa6c05365775", // 23 bytes
	"repetitive-256k":    "2913906186c889e2d2843705ddbf04f52723d9d9697b90de82b5c0f33f9681d8", // 1711 bytes
	"noisy-64k":          "6c5af76b31993af6725358955803628abd144f778b99bc399d4f2c8b43d545d0", // 65606 bytes
	"huffcoded-nyx":      "928f8fb8287dc324540bcb57598b01761cf5f3b6acdd2fdb8d6fd658131d12d9", // 35350 bytes
	"huffcoded-hacc":     "ddaa21f5662d8600418803928635fed89eef31f5aeb045754d20bb77bc1c6b83", // 180305 bytes
	"zero-64k":           "1041cebbb4c27cde90f6f980ef8200c7f09d18b121ce75de619bedd6cb8fa9f2", // 91 bytes
	"random-64k":         "135cf36222c3b41326ef7e676fab485a51ab5be755feb81c832658855d393989", // 65816 bytes
}

// storedNow names the corpus inputs Compress writes in the stored form: the
// near-uniform ones the gate sends there without a deflate pass, and the
// short ones whose deflate form came out no smaller.
var storedNow = map[string]bool{
	"far-match": true, "noisy": true, "noisy-64k": true, "huffcoded-hacc": true, "random-64k": true,
	"dist-equals-length": true, "empty": true, "one-literal": true, "two-bytes": true, "three-bytes": true,
}

// TestCompressMatchesParentBytes: the deflate form of every corpus input is
// the stream the parent wrote, byte for byte, and Compress writes either
// exactly that or the stored form — for the inputs named above and no other.
func TestCompressMatchesParentBytes(t *testing.T) {
	for _, tc := range encodeCorpus(t) {
		body := deflated(tc.src)
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != parentSHA[tc.name] {
			t.Errorf("%s: %d -> %d bytes, sha256 %s, parent wrote %q", tc.name, len(tc.src), len(body), got, parentSHA[tc.name])
		}
		comp := Compress(tc.src, Defaults())
		if got, err := Decompress(comp); err != nil || !bytes.Equal(got, tc.src) {
			t.Fatalf("%s: round trip failed: %v", tc.name, err)
		}
		switch {
		case Stored(comp) != storedNow[tc.name]:
			t.Errorf("%s: stored form %v, want %v (deflate %d bytes, gate estimate %.3f %%)",
				tc.name, Stored(comp), storedNow[tc.name], len(body), 100*gateEstimate(tc.src))
		case Stored(comp):
			if len(comp) != len(tc.src)+storedOverhead || !bytes.Equal(comp[storedOverhead:], tc.src) {
				t.Errorf("%s: stored form is not the length word and the input", tc.name)
			}
		case !bytes.Equal(comp, body):
			t.Errorf("%s: Compress kept deflate but wrote other bytes than the deflate form", tc.name)
		}
	}
}

// TestNeverExpands: whatever the input — uniform bytes, Huffman-coded
// residuals, a constant, every length too short to carry its own code tables
// — the stream is at most the eight-byte length word longer.
func TestNeverExpands(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, 1<<20)
	rng.Read(random)
	inputs := []namedInput{
		{"random-1M", random},
		{"random-64k", random[:1<<16]},
		{"random-16", random[:16]},
		{"huffcoded-nyx", huffCoded(t, "NYX", 1e-2, 128<<10)},
		{"huffcoded-hacc", huffCoded(t, "HACC", 1e-4, 128<<10)},
		{"zero-64k", make([]byte, 1<<16)},
	}
	for n := 0; n <= 64; n++ {
		inputs = append(inputs,
			namedInput{fmt.Sprintf("random-len%d", n), random[100 : 100+n]},
			namedInput{fmt.Sprintf("zero-len%d", n), make([]byte, n)})
	}
	for _, tc := range inputs {
		comp := Compress(tc.src, Defaults())
		if len(comp) > len(tc.src)+storedOverhead {
			t.Errorf("%s: %d bytes became %d", tc.name, len(tc.src), len(comp))
		}
		if got, err := Decompress(comp); err != nil || !bytes.Equal(got, tc.src) {
			t.Fatalf("%s: round trip failed: %v", tc.name, err)
		}
	}
}

// BenchmarkCompress covers the encoder's three regimes: all long matches,
// literal after literal at ratio 1, and the production input — Huffman-coded
// residuals of one 128 Ki-element partition at a narrow (NYX) and a wide
// (HACC) alphabet.
func BenchmarkCompress(b *testing.B) {
	for _, tc := range []namedInput{
		{"repetitive", repetitiveBytes(1 << 18)},
		{"noisy", noisyBytes(1<<18, 1)},
		{"huffcoded/nyx", huffCoded(b, "NYX", 1e-2, 128<<10)},
		{"huffcoded/hacc", huffCoded(b, "HACC", 1e-4, 128<<10)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			dst := AppendCompress(nil, tc.src, Defaults())
			b.SetBytes(int64(len(tc.src)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = AppendCompress(dst[:0], tc.src, Defaults())
			}
			b.ReportMetric(Ratio(len(tc.src), len(dst)), "ratio")
		})
	}
}

// gateEstimate is EntropyGain's estimate, NaN where the gate does not ask.
func gateEstimate(src []byte) float64 {
	if gain, asked := EntropyGain(src); asked {
		return gain
	}
	return math.NaN()
}
