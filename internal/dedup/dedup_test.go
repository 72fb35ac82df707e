package dedup

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

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
// Contract: never panic, boundaries ascending and bounded, chunks
// concatenate back to the input.
func FuzzSplit(f *testing.F) {
	f.Add([]byte("hello world"), 64, 256, 1024, 4)
	f.Add(testData(1<<12, 1), 16, 16, 16, 1)
	f.Add([]byte{}, 0, 0, 0, 0)
	f.Add(bytes.Repeat([]byte{0}, 5000), 32, 128, 512, 8)
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
