package dedup

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// splitReference is the chunker's definition: the byte-at-a-time loop Split
// ran before it learned to skip (one hash step, one size test and one
// alignment test per byte, the hash cleared at every cut). Split,
// SplitFloat32 and FuzzSplit are held to its cuts.
func splitReference(data []byte, p Params) []int {
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

// f32le is the byte domain the float entry points promise to match.
func f32le(data []float32) []byte {
	b := make([]byte, len(data)*4)
	for i, v := range data {
		binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(v))
	}
	return b
}

func testData(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

func checkSplit(t *testing.T, data []byte, p Params) []int {
	t.Helper()
	p = p.Normalized()
	if err := p.Validate(); err != nil {
		t.Fatalf("params %+v invalid: %v", p, err)
	}
	cuts := Split(data, p)
	if len(data) == 0 {
		if cuts != nil {
			t.Fatalf("empty input produced cuts %v", cuts)
		}
		return nil
	}
	if cuts[len(cuts)-1] != len(data) {
		t.Fatalf("last cut %d != len %d", cuts[len(cuts)-1], len(data))
	}
	prev := 0
	for i, c := range cuts {
		size := c - prev
		if size <= 0 {
			t.Fatalf("cut %d: non-positive chunk size %d", i, size)
		}
		if size > p.MaxSize {
			t.Fatalf("cut %d: chunk size %d exceeds max %d", i, size, p.MaxSize)
		}
		last := i == len(cuts)-1
		if !last && size < p.MinSize {
			t.Fatalf("cut %d: chunk size %d below min %d", i, size, p.MinSize)
		}
		if !last && c%p.Align != 0 {
			t.Fatalf("cut %d: boundary %d not aligned to %d", i, c, p.Align)
		}
		prev = c
	}
	return cuts
}

func TestSplitInvariants(t *testing.T) {
	p := Params{MinSize: 64, AvgSize: 256, MaxSize: 1024, Align: 4}
	for _, n := range []int{0, 1, 3, 63, 64, 100, 4096, 1 << 16} {
		checkSplit(t, testData(n, int64(n)), p)
	}
	// Defaults on a larger buffer.
	checkSplit(t, testData(1<<20, 7), Params{})
}

func TestSplitDeterministic(t *testing.T) {
	data := testData(1<<18, 3)
	p := Params{MinSize: 256, AvgSize: 1024, MaxSize: 4096, Align: 4}
	a := Split(data, p)
	b := Split(data, p)
	if len(a) != len(b) {
		t.Fatalf("cut counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cut %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestSplitAvgSteering: the observed mean chunk size should be within a
// loose factor of the configured steering on random data.
func TestSplitAvgSteering(t *testing.T) {
	data := testData(1<<20, 11)
	p := Params{MinSize: 1 << 10, AvgSize: 4 << 10, MaxSize: 32 << 10, Align: 4}
	cuts := checkSplit(t, data, p)
	mean := float64(len(data)) / float64(len(cuts))
	lo := float64(p.MinSize)
	hi := float64(p.MinSize + 4*p.AvgSize)
	if mean < lo || mean > hi {
		t.Fatalf("mean chunk %.0f outside [%g, %g]", mean, lo, hi)
	}
}

// TestSplitLocality: an in-place edit must leave distant chunk boundaries
// untouched — the property the delta writer's dedup ratio rests on.
func TestSplitLocality(t *testing.T) {
	p := Params{MinSize: 256, AvgSize: 1024, MaxSize: 4096, Align: 4}
	orig := testData(1<<18, 5)
	edit := append([]byte(nil), orig...)
	editAt := len(edit) / 2
	for i := 0; i < 128; i++ {
		edit[editAt+i] ^= 0xA5
	}
	co, ce := Split(orig, p), Split(edit, p)
	// Boundaries strictly before the edit are identical.
	var before int
	for i := 0; i < len(co) && co[i] <= editAt; i++ {
		if i >= len(ce) || ce[i] != co[i] {
			t.Fatalf("pre-edit boundary %d changed: %d vs %d", i, co[i], ce[i])
		}
		before++
	}
	// Boundaries resynchronize after the edit: the suffix sets share cuts.
	sync := 0
	es := make(map[int]bool, len(ce))
	for _, c := range ce {
		es[c] = true
	}
	for _, c := range co {
		if c > editAt+p.MaxSize && es[c] {
			sync++
		}
	}
	if before == 0 || sync == 0 {
		t.Fatalf("no shared boundaries around edit (before=%d, resync=%d)", before, sync)
	}
}

// splitInputs are the contents the equivalence tests chunk: random bytes
// (cuts from the hash), constants (every test fires, or none does and MaxSize
// forces every cut) and a short period (the same window at many offsets).
func splitInputs(n int) map[string][]byte {
	periodic := make([]byte, n)
	for i := range periodic {
		periodic[i] = byte(i % 7 * 37)
	}
	return map[string][]byte{
		"random":   testData(n, int64(n)),
		"zeros":    make([]byte, n),
		"ones":     bytes.Repeat([]byte{0xFF}, n),
		"periodic": periodic,
	}
}

// TestSplitMatchesReference: skipping each chunk's first MinSize-64 bytes and
// testing once per Align bytes must not move a cut, at window-sized,
// sub-window and window-straddling MinSize, on lengths that end off the
// alignment.
func TestSplitMatchesReference(t *testing.T) {
	for _, align := range []int{1, 4, 8} {
		for _, minSize := range []int{16, 32, 64, 68, 2048} {
			for _, avgOver := range []int{0, 1, 8, 64} {
				p := Params{MinSize: minSize, AvgSize: minSize + avgOver*align*3, MaxSize: 4*minSize + 24, Align: align}
				if err := p.Normalized().Validate(); err != nil {
					t.Fatalf("params %+v: %v", p, err)
				}
				for _, n := range []int{0, 1, minSize - 1, minSize, minSize + 1, 4*minSize + 24, 10007, 40003} {
					for name, data := range splitInputs(n) {
						got, want := Split(data, p), splitReference(data, p)
						if !slices.Equal(got, want) {
							t.Fatalf("%s, %d bytes, %+v: cuts %v, reference loop %v", name, n, p, got, want)
						}
					}
				}
			}
		}
	}
	// The defaults, at a size where a chunk's skipped prefix is most of it.
	data := testData(1<<20+3, 9)
	if got, want := Split(data, Params{Align: 4}), splitReference(data, Params{Align: 4}); !slices.Equal(got, want) {
		t.Fatalf("defaults: %d cuts, reference loop %d", len(got), len(want))
	}
}

// floatInputs are arrays whose byte images exercise the float-domain entry
// points: random bit patterns (NaNs and infinities included), a constant,
// and a smooth ramp.
func floatInputs(n int) map[string][]float32 {
	rng := rand.New(rand.NewSource(int64(n)))
	random, constant, ramp := make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range random {
		random[i] = math.Float32frombits(rng.Uint32())
		constant[i] = -1.5
		ramp[i] = float32(i) * 0.25
	}
	return map[string][]float32{"random": random, "constant": constant, "ramp": ramp}
}

// TestFloat32DomainMatchesBytes: chunking and digesting an array in place
// gives the cuts and digests of its little-endian bytes.
func TestFloat32DomainMatchesBytes(t *testing.T) {
	var h Float32Hasher
	for _, p := range []Params{
		{Align: 4},
		{MinSize: 16, AvgSize: 64, MaxSize: 256, Align: 4},
		{MinSize: 64, AvgSize: 256, MaxSize: 1024, Align: 8},
		{MinSize: 68, AvgSize: 68, MaxSize: 4096, Align: 4},
	} {
		for _, n := range []int{0, 1, 15, 16, 17, 2500, 1<<16 + 1} {
			for name, data := range floatInputs(n) {
				raw := f32le(data)
				cuts := SplitFloat32(data, p)
				if want := splitReference(raw, p); !slices.Equal(cuts, want) {
					t.Fatalf("%s, %d values, %+v: cuts %v, reference loop over bytes %v", name, n, p, cuts, want)
				}
				prev := 0
				for _, c := range cuts {
					if got, want := h.Sum(data[prev/4:c/4]), Sum(raw[prev:c]); got != want {
						t.Fatalf("%s, %d values, chunk [%d, %d): digest %v, Sum over bytes %v", name, n, prev, c, got, want)
					}
					prev = c
				}
			}
		}
	}
	// One digest longer than the hasher's scratch, and an empty one.
	long := floatInputs(3*hasherScratch/4 + 5)["random"]
	if got, want := h.Sum(long), Sum(f32le(long)); got != want {
		t.Fatalf("multi-block digest %v, Sum over bytes %v", got, want)
	}
	if got, want := h.Sum(nil), Sum(nil); got != want {
		t.Fatalf("empty digest %v, Sum %v", got, want)
	}
}

func TestSplitFloat32RefusesSubValueAlignment(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SplitFloat32 accepted Align 2")
		}
	}()
	SplitFloat32(make([]float32, 64), Params{Align: 2})
}

func TestSumStable(t *testing.T) {
	a := Sum([]byte("checkpoint"))
	b := Sum([]byte("checkpoint"))
	c := Sum([]byte("checkpoint!"))
	if a != b {
		t.Fatal("same bytes, different digests")
	}
	if a == c {
		t.Fatal("different bytes, same digest")
	}
	if len(a.String()) != 2*DigestLen {
		t.Fatalf("digest string %q has wrong length", a.String())
	}
}

func TestIndexRefcounts(t *testing.T) {
	x := NewIndex()
	d1 := Sum([]byte("one"))
	d2 := Sum([]byte("two"))
	loc1 := Location{Rank: 1, Field: 2, RawOff: 64, RawLen: 32}
	if !x.Add(d1, loc1) {
		t.Fatal("first Add returned false")
	}
	if x.Add(d1, Location{Rank: 9}) {
		t.Fatal("duplicate Add returned true")
	}
	if got, ok := x.Lookup(d1); !ok || got != loc1 {
		t.Fatalf("Lookup = %+v, %v; want %+v (first location wins)", got, ok, loc1)
	}
	if x.Refs(d1) != 3 { // Add + Add + Lookup
		t.Fatalf("refs = %d, want 3", x.Refs(d1))
	}
	if x.Refs(d2) != 0 {
		t.Fatal("absent digest reported present")
	}
	if _, ok := x.Lookup(d2); ok {
		t.Fatal("Lookup hit on absent digest")
	}
	if x.Len() != 1 {
		t.Fatalf("Len = %d, want 1", x.Len())
	}
}

// TestIndexConcurrent exercises the index under the race detector.
func TestIndexConcurrent(t *testing.T) {
	x := NewIndex()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d := Sum([]byte{byte(i % 32)})
				x.Add(d, Location{Rank: w, RawOff: int64(i)})
				x.Lookup(d)
				x.Refs(d)
			}
		}(w)
	}
	wg.Wait()
	if x.Len() != 32 {
		t.Fatalf("Len = %d, want 32", x.Len())
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{MinSize: 8, AvgSize: 64, MaxSize: 128, Align: 4},     // min too small
		{MinSize: 128, AvgSize: 64, MaxSize: 256, Align: 4},   // avg < min
		{MinSize: 64, AvgSize: 256, MaxSize: 128, Align: 4},   // max < avg
		{MinSize: 64, AvgSize: 64, MaxSize: MaxChunkSize * 2}, // max too big
		{MinSize: 64, AvgSize: 64, MaxSize: 64, Align: 3},     // align not pow2
		{MinSize: 66, AvgSize: 128, MaxSize: 256, Align: 4},   // min unaligned
	}
	for i, p := range bad {
		if p.Align == 0 {
			p.Align = 1
		}
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: params %+v accepted", i, p)
		}
	}
	if err := (Params{}).Normalized().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
}

// FuzzSplit drives the chunker with arbitrary bytes and geometry.
// Contract: never panic, the reference loop's cuts, boundaries ascending and
// bounded, chunks concatenate back to the input.
func FuzzSplit(f *testing.F) {
	f.Add([]byte("hello world"), 64, 256, 1024, 4)
	f.Add(testData(1<<12, 1), 16, 16, 16, 1)
	f.Add([]byte{}, 0, 0, 0, 0)
	f.Add(bytes.Repeat([]byte{0}, 5000), 32, 128, 512, 8)
	f.Add(testData(3001, 2), 68, 100, 300, 4) // hashing starts 4 bytes into each chunk
	f.Fuzz(func(t *testing.T, data []byte, minS, avgS, maxS, align int) {
		// Clamp fuzzed geometry the way callers must: normalize, validate,
		// and skip what Validate rejects.
		p := Params{MinSize: minS, AvgSize: avgS, MaxSize: maxS, Align: align}
		if minS < 0 || avgS < 0 || maxS < 0 || align < 0 ||
			maxS > 1<<20 { // keep fuzz executions fast
			return
		}
		p = p.Normalized()
		if err := p.Validate(); err != nil {
			return
		}
		cuts := Split(data, p)
		if want := splitReference(data, p); !slices.Equal(cuts, want) {
			t.Fatalf("params %+v, %d bytes: cuts %v, reference loop %v", p, len(data), cuts, want)
		}
		prev := 0
		for i, c := range cuts {
			if c <= prev || c > len(data) {
				t.Fatalf("cut %d = %d out of order for len %d", i, c, len(data))
			}
			if c-prev > p.MaxSize {
				t.Fatalf("chunk %d size %d exceeds max %d", i, c-prev, p.MaxSize)
			}
			prev = c
		}
		if len(data) > 0 && (len(cuts) == 0 || cuts[len(cuts)-1] != len(data)) {
			t.Fatalf("cuts %v do not cover input of %d bytes", cuts, len(data))
		}
	})
}

// BenchmarkSplit chunks 8 MiB — one rank of the bench/ workloads — at the
// checkpoint layer's geometry, as bytes and in the float domain.
func BenchmarkSplit(b *testing.B) {
	const n = 8 << 20
	p := Params{Align: 4}
	raw := testData(n, 1)
	vals := make([]float32, n/4)
	for i := range vals {
		vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	for _, bc := range []struct {
		name string
		run  func() []int
	}{
		{"bytes", func() []int { return Split(raw, p) }},
		{"float32", func() []int { return SplitFloat32(vals, p) }},
		{"reference", func() []int { return splitReference(raw, p) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if cuts := bc.run(); cuts[len(cuts)-1] != n {
					b.Fatal(fmt.Sprint("last cut ", cuts[len(cuts)-1]))
				}
			}
		})
	}
}
