package sz

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lcpio/internal/fpdata"
	"lcpio/internal/lossless"
	"lcpio/internal/wire"
)

const (
	sweepElems = 256 << 10
	sweepSeed  = 1
	sweepPath  = "testdata/stage_sweep.golden"
)

// partitionPayloads walks a v4 stream's header and partition index and
// returns each partition's lossless-coded payload.
func partitionPayloads(t testing.TB, stream []byte) [][]byte {
	t.Helper()
	rd := wire.NewReader(stream, ErrCorrupt)
	for i := 0; i < 5; i++ { // magic, version, kind, quantBits, predOrder
		rd.Uint32()
	}
	rd.Float64()
	for nd := rd.Uint32(); nd > 0; nd-- {
		rd.Uint64()
	}
	rd.Uint32() // splitDepth
	lens := make([]int, rd.Uint32())
	for i := range lens {
		rd.Uint64() // rows
		lens[i] = int(rd.Uint64())
	}
	payloads := make([][]byte, len(lens))
	for i, n := range lens {
		payloads[i] = rd.Bytes(n)
	}
	if rd.Err() != nil || rd.Remaining() != 0 {
		t.Fatalf("stream does not parse as header + index + payloads: err %v, %d bytes left", rd.Err(), rd.Remaining())
	}
	return payloads
}

// storedPartitions counts the payloads the lossless stage wrote in its stored
// form.
func storedPartitions(payloads [][]byte) int {
	n := 0
	for _, p := range payloads {
		if lossless.Stored(p) {
			n++
		}
	}
	return n
}

// TestLosslessStageSweep holds the compressed size of every fpdata generator
// at every bound from 1e-1 to 1e-6 against the sizes recorded before the
// lossless stage was gated (testdata/stage_sweep.golden, one line per tuple,
// written by the all-deflate encoder of commit e5840d9; fixed data, nothing
// here rewrites it).
// A tuple all of whose partitions stay on deflate must keep its size exactly;
// one with stored partitions may grow by at most 1.5 %, and is logged with
// its old and new size.
func TestLosslessStageSweep(t *testing.T) {
	type tuple struct {
		name          string
		size          int
		stored, parts int
	}
	var got []tuple
	for _, spec := range append(fpdata.TableI(), fpdata.IsabelFields()...) {
		f := fpdata.Generate(spec, spec.ScaleFor(sweepElems), sweepSeed)
		lo, hi := f.Range()
		for _, rel := range []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6} {
			stream, err := NewHandle(1).Compress(f.Data, f.Dims, rel*float64(hi-lo))
			if err != nil {
				t.Fatal(err)
			}
			parts := partitionPayloads(t, stream)
			got = append(got, tuple{fmt.Sprintf("%s/%s@%g", spec.Dataset, spec.Field, rel),
				len(stream), storedPartitions(parts), len(parts)})
		}
	}
	raw, err := os.ReadFile(filepath.FromSlash(sweepPath))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != len(got) {
		t.Fatalf("%s has %d tuples, the sweep %d", sweepPath, len(lines), len(got))
	}
	for i, line := range lines {
		var name string
		var want int
		if _, err := fmt.Sscanf(line, "%s %d", &name, &want); err != nil || name != got[i].name {
			t.Fatalf("%s line %d: %q, want tuple %s", sweepPath, i+1, line, got[i].name)
		}
		tp := got[i]
		if tp.stored > 0 {
			t.Logf("%s: %d of %d partitions stored, %d -> %d bytes (%+.3f %%)",
				name, tp.stored, tp.parts, want, tp.size, 100*float64(tp.size-want)/float64(want))
			if float64(tp.size) > 1.015*float64(want) {
				t.Errorf("%s: %d bytes, more than 1.5 %% above the recorded %d", name, tp.size, want)
			}
		} else if tp.size != want {
			t.Errorf("%s: every partition on deflate, yet %d bytes differ from the recorded %d", name, tp.size, want)
		}
	}
}
