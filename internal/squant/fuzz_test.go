package squant

import (
	"runtime"
	"testing"

	"lcpio/internal/lossless"
	"lcpio/internal/wire"
)

// forgedElems is the element count the forged streams claim: 2^26 values
// (256 MiB of float32) in a few dozen bytes.
const forgedElems = 1 << 26

// forgedStream is a stream whose header claims dims [forgedElems] and numExc
// exceptions and then ends; with numExc 0 it goes on to an empty quanta run.
func forgedStream(numExc uint64) []byte {
	var p []byte
	p = wire.AppendUint32(p, magic)
	p = wire.AppendUint32(p, version)
	p = wire.AppendUint32(p, 32)
	p = wire.AppendFloat64(p, 1e-3)
	p = wire.AppendDims(p, []int{forgedElems})
	p = wire.AppendUint64(p, numExc)
	if numExc == 0 {
		p = wire.AppendUint64(p, 0) // qLen
	}
	return lossless.AppendCompress(nil, p, lossless.Defaults())
}

func fuzzSeedStream(tb testing.TB) []byte {
	data := make([]float32, 256)
	for i := range data {
		data[i] = float32(i%17) * 0.25
	}
	data[9] = float32(1e30) // one exception
	buf, err := Handle{}.Compress(data, []int{4, 64}, 1e-3)
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

// FuzzDecompress: any input either decodes to a coherent array or returns an
// error — never a panic, and never an allocation sized by a count the bytes
// present could not carry.
func FuzzDecompress(f *testing.F) {
	buf := fuzzSeedStream(f)
	f.Add([]byte(nil))
	f.Add(buf)
	for _, cut := range []int{1, 8, 16, 24, 40, len(buf) / 2, len(buf) - 1} {
		if cut < len(buf) {
			f.Add(buf[:cut])
		}
	}
	f.Add(forgedStream(forgedElems))
	f.Add(forgedStream(0))

	f.Fuzz(func(t *testing.T, in []byte) {
		if out, dims, err := (Handle{}).Decompress(in); err == nil && wire.CheckDims("squant", len(out), dims) != nil {
			t.Fatalf("decode succeeded with dims %v for %d values", dims, len(out))
		}
	})
}

// TestForgedCountsRefusedInsideBudget: a stream of a few dozen bytes that
// claims 2^26 exceptions, or 2^26 elements over an empty quanta run, is
// refused before the exception tables or the output are sized — what the call
// allocates is the inflated payload and little else.
func TestForgedCountsRefusedInsideBudget(t *testing.T) {
	for name, stream := range map[string][]byte{
		"exceptions": forgedStream(forgedElems),
		"quanta":     forgedStream(0),
	} {
		// The stream is its payload, stored. TotalAlloc counts the whole
		// process: the least of three attempts is what is held to the budget.
		budget := uint64(len(stream)) + 4096
		least := ^uint64(0)
		for try := 0; try < 3 && least > budget; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := Handle{}.Decompress(stream)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s: forged stream decoded", name)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > budget {
			t.Errorf("%s: refusing %d bytes allocated %d", name, len(stream), least)
		}
	}
}
