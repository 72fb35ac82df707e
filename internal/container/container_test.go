package container

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"lcpio/internal/compress"
	"lcpio/internal/fpdata"
	"lcpio/internal/wire"
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
		buf, err := Pack(codec, f.Data, f.Dims, eb, Options{})
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
	buf, err := Pack("sz", f.Data, f.Dims, eb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := Stat(buf)
	if err != nil {
		t.Fatal(err)
	}
	if info.Codec != "sz" || !slices.Equal(info.Dims, f.Dims) {
		t.Fatalf("info %+v", info)
	}
	if info.Ratio() <= 1 {
		t.Fatalf("ratio %.2f", info.Ratio())
	}
	if info.ErrorBound != eb {
		t.Fatalf("eb %v, want %v", info.ErrorBound, eb)
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
	buf, err := Pack("sz", f.Data, f.Dims, eb, Options{})
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
	// A header bound no Pack writes: a check that holds it to a set's bound
	// must not pass a zero, negative or infinite one, nor NaN.
	at := bytes.Index(buf, wire.AppendFloat64(nil, eb))
	for _, bad := range []float64{0, -eb, math.Inf(1), math.NaN()} {
		mut := append([]byte(nil), buf...)
		copy(mut[at:], wire.AppendFloat64(nil, bad))
		if _, err := Stat(mut); !errors.Is(err, ErrCorrupt) {
			t.Errorf("header bound %g: Stat %v, want ErrCorrupt", bad, err)
		}
	}
}

// TestUnpackerReuse: one Unpacker across containers of both codecs and two
// shapes returns what one-shot Unpack does, its Check accepts each of them
// at their codec, their shape and a bound no tighter than theirs, and at no
// other — the same element count in another shape included — and once its
// handles have seen the largest field a Check allocates nothing the size of
// an output.
func TestUnpackerReuse(t *testing.T) {
	f := nyxField(t)
	eb := compress.AbsBoundFromRelative(1e-3, f.Data)
	half := f.Data[:len(f.Data)/2]
	halfDims := []int{f.Dims[0] / 2, f.Dims[1] * f.Dims[2]}
	u := NewUnpacker(Options{Parallelism: 2})
	var bufs [][]byte
	for _, tc := range []struct {
		codec string
		data  []float32
		dims  []int
	}{
		{"sz", half, halfDims},
		{"zfp", half, halfDims},
		{"sz", f.Data, f.Dims},
		{"zfp", f.Data, f.Dims},
	} {
		buf, err := Pack(tc.codec, tc.data, tc.dims, eb, Options{})
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, buf)
		want, _, err := Unpack(buf, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, dims, err := u.Unpack(buf)
		if err != nil || !slices.Equal(dims, tc.dims) || len(got) != len(want) {
			t.Fatalf("%s %v: %d values, dims %v, err %v", tc.codec, tc.dims, len(got), dims, err)
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s %v: element %d differs from Unpack", tc.codec, tc.dims, i)
			}
		}
		// A set may promise a looser bound than the chunk keeps, never a
		// tighter one, and never another codec.
		if err := u.Check(buf, tc.codec, tc.dims, eb); err != nil {
			t.Fatalf("%s %v: Check: %v", tc.codec, tc.dims, err)
		}
		if err := u.Check(buf, tc.codec, tc.dims, 2*eb); err != nil {
			t.Fatalf("%s %v: Check under a looser bound: %v", tc.codec, tc.dims, err)
		}
		other := map[string]string{"sz": "zfp", "zfp": "sz"}[tc.codec]
		for _, wrong := range []struct {
			codec string
			dims  []int
			eb    float64
		}{{tc.codec, []int{len(want)}, eb}, {tc.codec, []int{len(want) + 1}, eb},
			{other, tc.dims, eb}, {tc.codec, tc.dims, eb / 2}} {
			if err := u.Check(buf, wrong.codec, wrong.dims, wrong.eb); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s %v: Check of %s %v at bound %g: %v, want ErrCorrupt",
					tc.codec, tc.dims, wrong.codec, wrong.dims, wrong.eb, err)
			}
		}
		if err := u.Check(buf[:len(buf)-1], tc.codec, tc.dims, eb); err == nil {
			t.Fatalf("%s %v: Check accepted a container cut short", tc.codec, tc.dims)
		}
	}
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k, buf := range bufs[2:] { // sz then zfp: each codec's handle is kept
			if err := u.Check(buf, []string{"sz", "zfp"}[k], f.Dims, eb); err != nil {
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

// TestWarmZfpCheckAllocatesNothing: the daemon's verifier — a one-worker
// Unpacker — gives a zfp chunk it has seen the like of its verdict without
// allocating: the header's dims and the codec's land in scratch, the codec
// name is the registry's, and no value is rebuilt.
func TestWarmZfpCheckAllocatesNothing(t *testing.T) {
	f := nyxField(t)
	eb := compress.AbsBoundFromRelative(1e-3, f.Data)
	buf, err := Pack("zfp", f.Data, f.Dims, eb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := NewUnpacker(Options{Parallelism: 1})
	if err := u.Check(buf, "zfp", f.Dims, eb); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() { _ = u.Check(buf, "zfp", f.Dims, eb) }); a != 0 {
		t.Fatalf("a warm zfp Check allocates %.1f times per call; want 0", a)
	}
}

// TestChunkClaimsMoreThanItsSpan: a codec stream whose own dims are not the
// container's must be refused — one describing more rows must not reach past
// the output on the way (the decode lands in an array of the codec's own),
// and one with the same element count and first dim in another shape is
// refused too.
func TestChunkClaimsMoreThanItsSpan(t *testing.T) {
	const n = 64 // both containers' element count
	data := make([]float32, 2*n)
	for i := range data {
		data[i] = float32(i) * 0.5
	}
	h, err := compress.NewHandle("sz", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name              string
		container, stream []int
	}{
		{"more rows", []int{4, 16}, []int{8, 16}},
		{"other shape", []int{4, 4, 4}, []int{4, 16}},
	} {
		frame, err := Pack("sz", data[:n], tc.container, 1e-3, Options{})
		if err != nil {
			t.Fatal(err)
		}
		stream, err := h.Compress(data[:tc.stream[0]*tc.stream[1]], tc.stream, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		// The container's header, its size word patched, around the stream.
		p, err := parse(frame, nil)
		if err != nil {
			t.Fatal(err)
		}
		head := len(frame) - len(p.stream)
		forged := append(frame[:head:head], stream...)
		binary.LittleEndian.PutUint64(forged[head-8:], uint64(len(stream)))
		if _, _, err := Unpack(forged, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Unpack: %v, want ErrCorrupt", tc.name, err)
		}
		if err := checkStated(NewUnpacker(Options{Parallelism: 1}), forged, tc.container); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Check: %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// TestContainerIsOneCodecStream: a container is its header plus the codec's
// stream of the whole array, byte for byte, at any handle width — so its
// stored bytes are the ones the model prices with compress.Evaluate.
func TestContainerIsOneCodecStream(t *testing.T) {
	spec, err := fpdata.Lookup("NYX", "velocity_x")
	if err != nil {
		t.Fatal(err)
	}
	f := fpdata.Generate(spec, spec.ScaleFor(1<<21), 0)
	if !slices.Equal(f.Dims, []int{128, 128, 128}) {
		t.Fatalf("field dims %v, want 128x128x128", f.Dims)
	}
	eb := compress.AbsBoundFromRelative(1e-3, f.Data)
	for _, codec := range []string{"sz", "zfp"} {
		// magic, version, codec name, element width, dims, bound, row count
		// and the one (lo, hi, size) row.
		head := 4 + 4 + 4 + len(codec) + 4 + 4 + 8*len(f.Dims) + 8 + 4 + 3*8
		var first []byte
		for _, w := range []int{1, 2, 4} {
			buf, err := Pack(codec, f.Data, f.Dims, eb, Options{Parallelism: w})
			if err != nil {
				t.Fatal(err)
			}
			h, err := compress.NewHandle(codec, w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := h.Compress(f.Data, f.Dims, eb)
			if err != nil {
				t.Fatal(err)
			}
			if len(buf) != head+len(want) || !bytes.Equal(buf[head:], want) {
				t.Fatalf("%s at %d workers: %d B after a %d B header, want the %d B stream of the whole array",
					codec, w, len(buf)-head, head, len(want))
			}
			if first == nil {
				first = buf
			} else if !bytes.Equal(buf, first) {
				t.Fatalf("%s: %d workers changed the container", codec, w)
			}
		}
	}
}

// TestTrailingBytesRefused: a container ends where its one stream does.
// Bytes appended to a valid one make Stat, Check and Unpack refuse it, and a
// clean container's PackedBytes is its header plus its stream.
func TestTrailingBytesRefused(t *testing.T) {
	data := make([]float32, 64)
	for i := range data {
		data[i] = float32(i) * 0.25
	}
	for _, codec := range []string{"sz", "zfp"} {
		buf, err := Pack(codec, data, []int{64}, 1e-3, Options{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := parse(buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		// magic, version, codec name, element width, dims, bound, row count
		// and the one (lo, hi, size) row.
		head := 4 + 4 + 4 + len(codec) + 4 + 4 + 8 + 8 + 4 + 3*8
		if p.info.PackedBytes != int64(head+len(p.stream)) || int(p.info.PackedBytes) != len(buf) {
			t.Fatalf("%s: PackedBytes %d, want a %d B header plus the %d B stream",
				codec, p.info.PackedBytes, head, len(p.stream))
		}
		padded := append(append([]byte(nil), buf...), make([]byte, 1000)...)
		if _, err := Stat(padded); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Stat of a container with 1000 B appended: %v, want ErrCorrupt", codec, err)
		}
		if err := checkStated(NewUnpacker(Options{Parallelism: 1}), padded, []int{64}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Check: %v, want ErrCorrupt", codec, err)
		}
		if _, _, err := Unpack(padded, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Unpack: %v, want ErrCorrupt", codec, err)
		}
	}
}

// checkStated is u.Check held to what buf's own header states, its codec and
// bound, at the given dims.
func checkStated(u *Unpacker, buf []byte, dims []int) error {
	info, _ := Stat(buf)
	return u.Check(buf, info.Codec, dims, info.ErrorBound)
}
