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
// every putZ frame — and by Unpack, each with an error naming the codec and
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

	u := NewUnpacker(Options{Parallelism: 1})
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"Stat", func() error { _, err := Stat(buf); return err }},
		{"Check", func() error { return u.Check(buf, elems) }},
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
			if err == nil || !strings.Contains(err.Error(), `"squant"`) {
				t.Fatalf("%s: err %v, want a refusal naming the codec", c.name, err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > 4096 {
			t.Errorf("%s: refusing %d bytes allocated %d", c.name, len(buf), least)
		}
	}
}
