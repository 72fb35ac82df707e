package container

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"lcpio/internal/compress"
	"lcpio/internal/fpdata"
)

func nyxField(t *testing.T) *fpdata.Field {
	t.Helper()
	spec, err := fpdata.Lookup("NYX", "")
	if err != nil {
		t.Fatal(err)
	}
	return fpdata.Generate(spec, 16, 3) // 32^3
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := nyxField(t)
	eb := compress.AbsBoundFromRelative(1e-3, f.Data)
	for _, codec := range []string{"sz", "zfp"} {
		buf, err := Pack(codec, f.Data, f.Dims, eb, Options{ChunkElems: 4096})
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		out, dims, err := Unpack(buf, Options{})
		if err != nil {
			t.Fatalf("%s unpack: %v", codec, err)
		}
		if len(dims) != 3 || dims[0] != f.Dims[0] {
			t.Fatalf("%s dims %v", codec, dims)
		}
		if e := compress.MaxAbsError(f.Data, out); e > eb {
			t.Fatalf("%s bound violated: %g > %g", codec, e, eb)
		}
	}
}

func TestStat(t *testing.T) {
	f := nyxField(t)
	eb := compress.AbsBoundFromRelative(1e-2, f.Data)
	buf, err := Pack("sz", f.Data, f.Dims, eb, Options{ChunkElems: 4096})
	if err != nil {
		t.Fatal(err)
	}
	info, err := Stat(buf)
	if err != nil {
		t.Fatal(err)
	}
	if info.Codec != "sz" || info.NumChunks < 2 {
		t.Fatalf("info %+v", info)
	}
	if info.Ratio() <= 1 {
		t.Fatalf("ratio %.2f", info.Ratio())
	}
	if info.ErrorBound != eb {
		t.Fatalf("eb %v, want %v", info.ErrorBound, eb)
	}
}

func TestReadChunkMatchesSlab(t *testing.T) {
	f := nyxField(t)
	eb := compress.AbsBoundFromRelative(1e-3, f.Data)
	buf, err := Pack("sz", f.Data, f.Dims, eb, Options{ChunkElems: 4096})
	if err != nil {
		t.Fatal(err)
	}
	info, err := Stat(buf)
	if err != nil {
		t.Fatal(err)
	}
	rowElems := len(f.Data) / f.Dims[0]
	covered := 0
	for ci := 0; ci < info.NumChunks; ci++ {
		vals, dims, startRow, err := ReadChunk(buf, ci)
		if err != nil {
			t.Fatalf("chunk %d: %v", ci, err)
		}
		if startRow != covered {
			t.Fatalf("chunk %d starts at row %d, want %d", ci, startRow, covered)
		}
		covered += dims[0]
		slab := f.Data[startRow*rowElems : startRow*rowElems+len(vals)]
		if e := compress.MaxAbsError(slab, vals); e > eb {
			t.Fatalf("chunk %d bound violated: %g", ci, e)
		}
	}
	if covered != f.Dims[0] {
		t.Fatalf("chunks cover %d rows of %d", covered, f.Dims[0])
	}
	if _, _, _, err := ReadChunk(buf, info.NumChunks); err == nil {
		t.Fatal("out-of-range chunk accepted")
	}
}

func TestSingleChunkWhenTargetHuge(t *testing.T) {
	f := nyxField(t)
	eb := compress.AbsBoundFromRelative(1e-2, f.Data)
	buf, err := Pack("zfp", f.Data, f.Dims, eb, Options{ChunkElems: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	info, _ := Stat(buf)
	if info.NumChunks != 1 {
		t.Fatalf("expected 1 chunk, got %d", info.NumChunks)
	}
}

func TestParallelismEquivalence(t *testing.T) {
	f := nyxField(t)
	eb := compress.AbsBoundFromRelative(1e-3, f.Data)
	seq, err := Pack("sz", f.Data, f.Dims, eb, Options{ChunkElems: 2048, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Pack("sz", f.Data, f.Dims, eb, Options{ChunkElems: 2048, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Chunk compression is deterministic, so worker count must not change
	// the bytes.
	if len(seq) != len(par) {
		t.Fatalf("parallelism changed output: %d vs %d bytes", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("parallelism changed output at byte %d", i)
		}
	}
}

func TestPackValidation(t *testing.T) {
	data := []float32{1, 2, 3, 4}
	if _, err := Pack("nope", data, []int{4}, 1e-3, Options{}); err == nil {
		t.Error("unknown codec accepted")
	}
	if _, err := Pack("sz", data, []int{5}, 1e-3, Options{}); err == nil {
		t.Error("dims mismatch accepted")
	}
	if _, err := Pack("sz", data, nil, 1e-3, Options{}); err == nil {
		t.Error("empty dims accepted")
	}
	if _, err := Pack("sz", data, []int{4}, 0, Options{}); err == nil {
		t.Error("zero bound accepted")
	}
	if _, err := Pack("sz", data, []int{-4}, 1e-3, Options{}); err == nil {
		t.Error("negative dim accepted")
	}
	// The shape caps are package wire's; the error is this package's.
	for _, dims := range [][]int{{1, 1, 1, 1, 1, 1, 1, 1, 4}, {4, 0}} {
		if _, err := Pack("sz", data, dims, 1e-3, Options{}); err == nil || !strings.HasPrefix(err.Error(), "container: ") {
			t.Errorf("dims %v: got %v, want a container error", dims, err)
		}
	}
}

func TestUnpackCorrupt(t *testing.T) {
	f := nyxField(t)
	eb := compress.AbsBoundFromRelative(1e-2, f.Data)
	buf, err := Pack("sz", f.Data, f.Dims, eb, Options{ChunkElems: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 3, 16, len(buf) / 2} {
		if _, _, err := Unpack(buf[:cut], Options{}); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Flip a codec-name byte: unknown codec must be reported.
	mut := append([]byte(nil), buf...)
	mut[12] ^= 0xFF
	if _, _, err := Unpack(mut, Options{}); err == nil {
		t.Error("corrupted codec name accepted")
	}
}

// TestUnpackerReuse: one Unpacker across containers of both codecs and two
// shapes returns what one-shot Unpack does, its Check accepts each of them
// at their element count and at no other, and once its slab has seen the
// largest chunk a Check allocates nothing the size of an output.
func TestUnpackerReuse(t *testing.T) {
	f := nyxField(t)
	eb := compress.AbsBoundFromRelative(1e-3, f.Data)
	u := NewUnpacker(Options{Parallelism: 2})
	var bufs [][]byte
	for _, tc := range []struct {
		codec string
		chunk int
	}{{"sz", 4096}, {"zfp", 8192}, {"sz", 0}, {"zfp", 4096}} {
		buf, err := Pack(tc.codec, f.Data, f.Dims, eb, Options{ChunkElems: tc.chunk})
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, buf)
		want, _, err := Unpack(buf, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, dims, err := u.Unpack(buf)
		if err != nil || len(dims) != len(f.Dims) || len(got) != len(want) {
			t.Fatalf("%s chunk %d: %d values, dims %v, err %v", tc.codec, tc.chunk, len(got), dims, err)
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s chunk %d: element %d differs from Unpack", tc.codec, tc.chunk, i)
			}
		}
		if err := u.Check(buf, len(want)); err != nil {
			t.Fatalf("%s chunk %d: Check: %v", tc.codec, tc.chunk, err)
		}
		if err := u.Check(buf, len(want)+1); err == nil {
			t.Fatalf("%s chunk %d: Check accepted the wrong element count", tc.codec, tc.chunk)
		}
		if err := u.Check(buf[:len(buf)-1], len(want)); err == nil {
			t.Fatalf("%s chunk %d: Check accepted a container cut short", tc.codec, tc.chunk)
		}
	}
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, buf := range bufs[2:] { // sz then zfp: each codec's handles are kept
			if err := u.Check(buf, len(f.Data)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if raw := uint64(len(f.Data)) * 4; least > raw {
		t.Fatalf("two warm Checks allocated %d B against %d B of values", least, raw)
	}
}

// TestChunkClaimsMoreThanItsSpan: a chunk whose codec stream describes more
// rows than the chunk table gives it must be refused, and must not reach past
// its span on the way: the decode lands in an array of the codec's own.
func TestChunkClaimsMoreThanItsSpan(t *testing.T) {
	pack := func(rows int) []byte {
		data := make([]float32, rows*16)
		for i := range data {
			data[i] = float32(i) * 0.5
		}
		buf, err := Pack("sz", data, []int{rows, 16}, 1e-3, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	small, big := pack(4), pack(8)
	ps, err := parse(small)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := parse(big)
	if err != nil {
		t.Fatal(err)
	}
	// The 4-row container's framing around the 8-row container's one blob:
	// the chunk's size word is the last 8 bytes before the blobs.
	forged := append([]byte(nil), small[:ps.blobAt[0]]...)
	binary.LittleEndian.PutUint64(forged[len(forged)-8:], uint64(pb.blobSz[0]))
	forged = append(forged, big[pb.blobAt[0]:]...)
	if _, _, err := Unpack(forged, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Unpack: %v, want ErrCorrupt", err)
	}
	if err := NewUnpacker(Options{Parallelism: 1}).Check(forged, 4*16); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Check: %v, want ErrCorrupt", err)
	}
}

func TestChunkSpans(t *testing.T) {
	spans := chunkSpans([]int{100, 10}, 250) // 25 rows per chunk
	if len(spans) != 4 {
		t.Fatalf("spans: %v", spans)
	}
	if spans[0].lo != 0 || spans[3].hi != 100 {
		t.Fatalf("span coverage: %v", spans)
	}
	// Tiny target still yields at least one row per chunk.
	spans = chunkSpans([]int{5, 1000}, 1)
	if len(spans) != 5 {
		t.Fatalf("one-row spans: %v", spans)
	}
}

// Property: any chunk size and 1-D length round-trips within bound.
func TestQuickChunkingInvariant(t *testing.T) {
	f := func(seed int64, chunkRaw uint16) bool {
		n := int(seed%5000) + 16
		if n < 0 {
			n = -n + 16
		}
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(math.Sin(float64(i)/7) * 100)
		}
		eb := 1e-3
		chunk := int(chunkRaw)%2048 + 1
		buf, err := Pack("sz", data, []int{n}, eb, Options{ChunkElems: chunk})
		if err != nil {
			return false
		}
		out, _, err := Unpack(buf, Options{})
		return err == nil && len(out) == n && compress.MaxAbsError(data, out) <= eb
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPackParallel(b *testing.B) {
	spec, _ := fpdata.Lookup("NYX", "")
	f := fpdata.Generate(spec, 8, 3) // 64^3
	eb := compress.AbsBoundFromRelative(1e-3, f.Data)
	for _, par := range []int{1, 4} {
		b.Run(map[int]string{1: "serial", 4: "par4"}[par], func(b *testing.B) {
			b.SetBytes(f.SizeBytes())
			for i := 0; i < b.N; i++ {
				if _, err := Pack("sz", f.Data, f.Dims, eb,
					Options{ChunkElems: 32768, Parallelism: par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestPack64RoundTrip(t *testing.T) {
	data := make([]float64, 8192)
	for i := range data {
		data[i] = math.Sin(float64(i)/40) * 1e6
	}
	for _, codec := range []string{"sz", "zfp", "squant"} {
		buf, err := Pack64(codec, data, []int{8192}, 1e-3, Options{ChunkElems: 1024})
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		info, err := Stat(buf)
		if err != nil || info.ElemBits != 64 {
			t.Fatalf("%s stat: %+v err %v", codec, info, err)
		}
		if info.RawBytes != int64(len(data))*8 {
			t.Fatalf("%s raw bytes %d", codec, info.RawBytes)
		}
		out, dims, err := Unpack64(buf, Options{})
		if err != nil || len(out) != len(data) || dims[0] != 8192 {
			t.Fatalf("%s unpack: %d err %v", codec, len(out), err)
		}
		for i := range data {
			if d := out[i] - data[i]; d > 1e-3 || d < -1e-3 {
				t.Fatalf("%s bound violated at %d", codec, i)
			}
		}
		// Type mismatch errors.
		if _, _, err := Unpack(buf, Options{}); err == nil {
			t.Fatalf("%s: float64 container accepted by Unpack", codec)
		}
		if _, _, _, err := ReadChunk(buf, 0); err == nil {
			t.Fatalf("%s: float64 container accepted by ReadChunk", codec)
		}
	}
	// And the reverse mismatch.
	f32 := make([]float32, 256)
	b32, err := Pack("sz", f32, []int{256}, 1e-3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Unpack64(b32, Options{}); err == nil {
		t.Fatal("float32 container accepted by Unpack64")
	}
}
