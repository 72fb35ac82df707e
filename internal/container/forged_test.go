package container

import (
	"runtime"
	"strings"
	"testing"

	"lcpio/internal/compress"
	"lcpio/internal/wire"
)

// TestRetiredCodecRefusedInsideBudget: a container naming squant, a codec
// this repository no longer registers, over a chunk claiming 2^26 elements
// is refused by Stat, by Check — what the daemon's verification pool runs on
// every put of a compressed-wire session — and by Unpack, each with an error naming the codec and
// inside 4 KiB: the name is read before anything is sized by the claim.
func TestRetiredCodecRefusedInsideBudget(t *testing.T) {
	h, err := compress.NewHandle("sz", 1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := h.Compress(make([]float32, 16), []int{16}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	const elems = 1 << 26
	var buf []byte
	buf = wire.AppendUint32(buf, magic)
	buf = wire.AppendUint32(buf, version)
	buf = wire.AppendString(buf, "squant")
	buf = wire.AppendUint32(buf, wire.ElemBits)
	buf = wire.AppendDims(buf, []int{elems})
	buf = wire.AppendFloat64(buf, 1e-3)
	buf = wire.AppendUint32(buf, 1)
	buf = wire.AppendUint64(buf, 0)
	buf = wire.AppendUint64(buf, elems)
	buf = wire.AppendUint64(buf, uint64(len(blob)))
	buf = append(buf, blob...)

	requireRefusedInsideBudget(t, buf, []int{elems}, `"squant"`)
}

// TestMultiStreamContainerRefused: a version-2 container whose chunk table
// has two rows, as builds that split arrays into slabs wrote, is refused by
// Stat, by Check and by Unpack with an error naming the row count, inside
// 4 KiB: the table is read before anything is sized by the dims' claim of
// 2^26 elements.
func TestMultiStreamContainerRefused(t *testing.T) {
	h, err := compress.NewHandle("sz", 1)
	if err != nil {
		t.Fatal(err)
	}
	const row = 1 << 25
	blob, err := h.Compress(make([]float32, 16), []int{16}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	buf = wire.AppendUint32(buf, magic)
	buf = wire.AppendUint32(buf, version)
	buf = wire.AppendString(buf, "sz")
	buf = wire.AppendUint32(buf, wire.ElemBits)
	buf = wire.AppendDims(buf, []int{2, row})
	buf = wire.AppendFloat64(buf, 1e-3)
	buf = wire.AppendUint32(buf, 2)
	for lo := range 2 {
		buf = wire.AppendUint64(buf, uint64(lo))
		buf = wire.AppendUint64(buf, uint64(lo+1))
		buf = wire.AppendUint64(buf, uint64(len(blob)))
	}
	buf = append(buf, blob...)
	buf = append(buf, blob...)
	requireRefusedInsideBudget(t, buf, []int{2, row}, "2 codec streams")
}

// requireRefusedInsideBudget holds Stat, Check — what the daemon's
// verification pool runs on every put of a compressed-wire session — and Unpack to refusing buf
// with an error containing want, each inside 4 KiB.
func requireRefusedInsideBudget(t *testing.T, buf []byte, dims []int, want string) {
	t.Helper()
	u := NewUnpacker(Options{Parallelism: 1})
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"Stat", func() error { _, err := Stat(buf); return err }},
		{"Check", func() error { return u.Check(buf, dims) }},
		{"Unpack", func() error { _, _, err := u.Unpack(buf); return err }},
	} {
		// TotalAlloc counts the whole process: the least of three attempts
		// is what is held to the budget.
		least := ^uint64(0)
		for try := 0; try < 3 && least > 4096; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.call()
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: err %v, want a refusal containing %q", c.name, err, want)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > 4096 {
			t.Errorf("%s: refusing %d bytes allocated %d", c.name, len(buf), least)
		}
	}
}
