package container

import (
	"runtime"
	"testing"

	"lcpio/internal/lossless"
	"lcpio/internal/wire"
)

// TestForgedSquantChunkRefusedInsideBudget: a 118-byte container whose one
// chunk is a squant stream claiming 2^26 exceptions goes through Check — what
// the daemon's verification pool runs on every putZ frame — without the
// forged count sizing anything: the call allocates the inflated payload and
// little else.
func TestForgedSquantChunkRefusedInsideBudget(t *testing.T) {
	// squant's header by hand (the package exports neither magic nor
	// version): a shape of [2^26], as many exceptions, and nothing after.
	var p []byte
	p = wire.AppendUint32(p, 0x53515543)
	p = wire.AppendUint32(p, 1)
	p = wire.AppendUint32(p, 32)
	p = wire.AppendFloat64(p, 1e-3)
	p = wire.AppendDims(p, []int{1 << 26})
	p = wire.AppendUint64(p, 1<<26)
	blob := lossless.AppendCompress(nil, p, lossless.Defaults())

	const elems = 16
	var buf []byte
	buf = wire.AppendUint32(buf, magic)
	buf = wire.AppendUint32(buf, version)
	buf = wire.AppendString(buf, "squant")
	buf = wire.AppendUint32(buf, 32)
	buf = wire.AppendDims(buf, []int{elems})
	buf = wire.AppendFloat64(buf, 1e-3)
	buf = wire.AppendUint32(buf, 1)
	buf = wire.AppendUint64(buf, 0)
	buf = wire.AppendUint64(buf, elems)
	buf = wire.AppendUint64(buf, uint64(len(blob)))
	buf = append(buf, blob...)
	if len(buf) != 118 {
		t.Fatalf("forged container is %d bytes, want 118", len(buf))
	}

	u := NewUnpacker(Options{Parallelism: 1})
	// TotalAlloc counts the whole process, and the first call builds the
	// Unpacker's handle and slab: the least of three attempts is what is held
	// to the budget.
	budget := uint64(len(p)) + 4096
	least := ^uint64(0)
	for try := 0; try < 3 && least > budget; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := u.Check(buf, elems)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("forged container passed Check")
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > budget {
		t.Errorf("refusing %d bytes allocated %d", len(buf), least)
	}
}
