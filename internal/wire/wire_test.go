package wire

import (
	"errors"
	"strings"
	"testing"
)

var errTest = errors.New("test: corrupt")

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUint32(b, 0xDEADBEEF)
	b = AppendUint64(b, 1<<40+7)
	b = AppendFloat64(b, 3.5)
	b = AppendFloat32(b, -2.25)
	b = append(b, 'x', 'y')

	r := NewReader(b, errTest)
	if got := r.Uint32(); got != 0xDEADBEEF {
		t.Errorf("Uint32 = %#x", got)
	}
	if got := r.Uint64(); got != 1<<40+7 {
		t.Errorf("Uint64 = %d", got)
	}
	if got := r.Float64(); got != 3.5 {
		t.Errorf("Float64 = %v", got)
	}
	if got := r.Float32(); got != -2.25 {
		t.Errorf("Float32 = %v", got)
	}
	if got := string(r.Bytes(2)); got != "xy" {
		t.Errorf("Bytes = %q", got)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
	if r.Err() != nil {
		t.Errorf("Err = %v", r.Err())
	}
}

func TestOverrunLatchesCallerError(t *testing.T) {
	r := NewReader([]byte{1, 2}, errTest)
	if r.Uint32() != 0 {
		t.Error("short Uint32 should return 0")
	}
	if !errors.Is(r.Err(), errTest) {
		t.Errorf("Err = %v, want errTest", r.Err())
	}
	// Error is sticky: later reads keep returning zero values.
	if r.Uint64() != 0 || r.Bytes(1) != nil || r.Float64() != 0 {
		t.Error("reads after error must return zero values")
	}
	if !errors.Is(r.Err(), errTest) {
		t.Errorf("Err changed to %v", r.Err())
	}
}

func TestNegativeBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3}, errTest)
	if r.Bytes(-1) != nil || r.Err() == nil {
		t.Error("negative Bytes length must error")
	}
}

func TestOffset(t *testing.T) {
	r := NewReader(make([]byte, 16), errTest)
	r.Uint32()
	r.Uint64()
	if r.Offset() != 12 {
		t.Errorf("Offset = %d, want 12", r.Offset())
	}
}

// TestCheckDimsCaps walks the caps with synthetic lengths — nothing the size
// of the shapes named is allocated.
func TestCheckDimsCaps(t *testing.T) {
	const maxInt = int(^uint(0) >> 1)
	for _, tc := range []struct {
		name string
		n    int
		dims []int
		ok   bool
	}{
		{"scalar", 1, []int{1}, true},
		{"eight dims", 256, []int{2, 2, 2, 2, 2, 2, 2, 2}, true},
		{"largest array", MaxElems, []int{1 << 17, 1 << 17}, true},
		{"no dims", 0, nil, false},
		{"nine dims", 1, []int{1, 1, 1, 1, 1, 1, 1, 1, 1}, false},
		{"zero extent", 0, []int{4, 0}, false},
		{"negative extent", -4, []int{4, -1}, false},
		{"extent past the cap", MaxExtent + 1, []int{MaxExtent + 1}, false},
		{"product past the cap", MaxElems + 1, []int{MaxElems + 1}, false},
		{"product past the cap, by one row", MaxElems + 1<<17, []int{1<<17 + 1, 1 << 17}, false},
		{"product that overflows int", maxInt, []int{1 << 33, 1 << 33}, false},
		{"product that wraps back under the cap", MaxElems, []int{1 << 34, 1<<30 + 1}, false},
		{"length disagrees", 11, []int{3, 4}, false},
	} {
		err := CheckDims("pkg", tc.n, tc.dims)
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.ok && (err == nil || !strings.HasPrefix(err.Error(), "pkg: ")) {
			t.Errorf("%s: got %v, want a pkg error", tc.name, err)
		}
	}
}

// TestDimsReadsWhatCheckDimsAdmits: the decoder side of the same caps — a
// shape an encoder may write reads back, one it may not latches the caller's
// error before anything is sized from it.
func TestDimsReadsWhatCheckDimsAdmits(t *testing.T) {
	for _, dims := range [][]int{
		{7}, {1, 2048}, {1 << 17, 1 << 17},
		{}, {1, 1, 1, 1, 1, 1, 1, 1, 1}, {4, 0}, {1<<17 + 1, 1 << 17}, {1 << 34, 1<<30 + 1},
	} {
		n := 1
		for _, d := range dims {
			n *= d
		}
		admitted := CheckDims("pkg", n, dims) == nil
		r := NewReader(AppendDims(nil, dims), errTest)
		got, gotN := r.Dims()
		if admitted {
			if r.Err() != nil || gotN != n || len(got) != len(dims) || r.Remaining() != 0 {
				t.Errorf("%v: read %v (%d elements), err %v", dims, got, gotN, r.Err())
			}
		} else if !errors.Is(r.Err(), errTest) || got != nil || gotN != 0 {
			t.Errorf("%v: read %v (%d elements), err %v; want the caller's error", dims, got, gotN, r.Err())
		}
	}
	// A u64 extent with the top bit set must not narrow to a negative int.
	r := NewReader(AppendUint64(AppendUint32(nil, 1), 1<<63|5), errTest)
	if got, _ := r.Dims(); got != nil || r.Err() == nil {
		t.Errorf("2^63+5 extent read as %v", got)
	}
	// Truncated mid-extent.
	r = NewReader(AppendDims(nil, []int{3, 4})[:15], errTest)
	if got, _ := r.Dims(); got != nil || r.Err() == nil {
		t.Errorf("truncated shape read as %v", got)
	}
}

func TestStringLimit(t *testing.T) {
	b := AppendString(AppendString(nil, "velocity_x"), "")
	r := NewReader(b, errTest)
	if got := r.String(10); got != "velocity_x" || r.Err() != nil {
		t.Errorf("String = %q, err %v", got, r.Err())
	}
	if got := r.String(0); got != "" || r.Err() != nil || r.Remaining() != 0 {
		t.Errorf("empty String = %q, err %v", got, r.Err())
	}
	r = NewReader(b, errTest)
	if got := r.String(9); got != "" || !errors.Is(r.Err(), errTest) {
		t.Errorf("over-limit String = %q, err %v", got, r.Err())
	}
	// A length the buffer cannot hold.
	r = NewReader(AppendUint32(nil, 1<<31), errTest)
	if got := r.String(1 << 40); got != "" || r.Err() == nil {
		t.Errorf("overlong String = %q, err %v", got, r.Err())
	}
}

func TestCollapse(t *testing.T) {
	for _, tc := range []struct {
		dims             []int
		rank, d0, d1, d2 int
	}{
		{[]int{100}, 1, 1, 1, 100},
		{[]int{1, 100}, 1, 1, 1, 100},
		{[]int{1, 1, 1}, 1, 1, 1, 1},
		{[]int{4, 5}, 2, 1, 4, 5},
		{[]int{64, 1, 64}, 2, 1, 64, 64},
		{[]int{3, 4, 5}, 3, 3, 4, 5},
		{[]int{2, 3, 4, 5}, 3, 6, 4, 5},
		{[]int{2, 1, 3, 1, 4, 5, 1, 6}, 3, 24, 5, 6},
	} {
		rank, d0, d1, d2 := Collapse(tc.dims)
		if rank != tc.rank || d0 != tc.d0 || d1 != tc.d1 || d2 != tc.d2 {
			t.Errorf("Collapse(%v) = %d, %d×%d×%d; want %d, %d×%d×%d",
				tc.dims, rank, d0, d1, d2, tc.rank, tc.d0, tc.d1, tc.d2)
		}
	}
	dims := []int{2, 1, 3, 4, 5}
	if a := testing.AllocsPerRun(100, func() { Collapse(dims) }); a != 0 {
		t.Errorf("Collapse allocates %v times per call", a)
	}
}

func TestElemValues(t *testing.T) {
	b := AppendFloat32(nil, -2.25)
	if len(b) != ElemBits/8 {
		t.Fatalf("a float32 took %d bytes", len(b))
	}
	r := NewReader(b, errTest)
	if v := r.Float32(); v != -2.25 || r.Err() != nil {
		t.Errorf("float32 = %v, err %v", v, r.Err())
	}
}

func TestSized(t *testing.T) {
	dst := make([]int, 2, 8)
	if got := Sized(dst, 8); &got[0] != &dst[0] || len(got) != 8 {
		t.Error("Sized did not reuse a slice with the capacity")
	}
	if got := Sized(dst, 9); len(got) != 9 || &got[0] == &dst[0] {
		t.Error("Sized did not allocate past the capacity")
	}
}
