package zfp

import (
	"fmt"
	"testing"

	"lcpio/internal/fpdata"
)

// rankField is one rank of a bench/ workload's input: the field at the
// workload's 2 Mi-element geometry, under the absolute bound the workload
// derives from the seed-0 realization's range (bench/workloads.go).
func rankField(b *testing.B, dataset, field string, rel float64) (*fpdata.Field, float64) {
	b.Helper()
	spec, err := fpdata.Lookup(dataset, field)
	if err != nil {
		b.Fatal(err)
	}
	scale := spec.ScaleFor(2 << 20)
	lo, hi := fpdata.Generate(spec, scale, 0).Range()
	return fpdata.Generate(spec, scale, 1), rel * float64(hi-lo)
}

var rankFields = []struct {
	name, dataset, field string
	rel                  float64
}{
	{"NYX3D", "NYX", "velocity_x", 1e-3}, // the zfp-wirez workload's field
	{"HACC1D", "HACC", "vx", 1e-4},
}

// BenchmarkCompressRank is the single-thread compress of one rank on a reused
// Handle into a reused buffer — the per-core number the zfp-wirez dump's
// two-core ceiling is made of — on the workload's own 3-D field and on 1-D
// particle data, where blocks are 4 values and per-block overhead dominates.
func BenchmarkCompressRank(b *testing.B) {
	for _, rf := range rankFields {
		b.Run(rf.name, func(b *testing.B) {
			f, eb := rankField(b, rf.dataset, rf.field, rf.rel)
			h := NewHandle(1)
			dst, err := h.CompressAppend(nil, f.Data, f.Dims, eb)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(f.SizeBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dst, err = h.CompressAppend(dst[:0], f.Data, f.Dims, eb); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(f.SizeBytes())/float64(len(dst)), "ratio")
		})
	}
}

// BenchmarkDecompressRank is BenchmarkCompressRank's decode: one worker,
// reused Handle, landing in a reused array as the daemon's verify pool does.
func BenchmarkDecompressRank(b *testing.B) {
	for _, rf := range rankFields {
		b.Run(rf.name, func(b *testing.B) {
			f, eb := rankField(b, rf.dataset, rf.field, rf.rel)
			h := NewHandle(1)
			comp, err := h.Compress(f.Data, f.Dims, eb)
			if err != nil {
				b.Fatal(err)
			}
			out := make([]float32, len(f.Data))
			b.SetBytes(f.SizeBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := h.DecompressInto(out, comp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckRank is BenchmarkDecompressRank's verdict-only pass, as the
// daemon's verify pool runs it on every chunk of a compressed-wire session: every block's bits read,
// no value rebuilt.
func BenchmarkCheckRank(b *testing.B) {
	for _, rf := range rankFields {
		b.Run(rf.name, func(b *testing.B) {
			f, eb := rankField(b, rf.dataset, rf.field, rf.rel)
			h := NewHandle(1)
			comp, err := h.Compress(f.Data, f.Dims, eb)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(f.SizeBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.Check(comp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransposeWindow times the plane transpose alone on a
// 64-coefficient block, in both directions, at live-plane counts either side
// of its pack thresholds: NYX at rel 1e-3 codes 7 to 15 planes a block, and
// no block more than hiPlane; 64 is the full-width transpose.
func BenchmarkTransposeWindow(b *testing.B) {
	s := xs64(0xB17B17)
	var nb, planes, out [64]uint64
	for i := range nb {
		nb[i] = s.next()
	}
	for _, live := range []int{8, 12, 16, 32, 64} {
		kmin := uint((64 - live) / 2)
		b.Run(fmt.Sprintf("gather/planes=%d", live), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				transposeWindow(planes[:], nb[:], live, kmin, 0)
			}
		})
		b.Run(fmt.Sprintf("scatter/planes=%d", live), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				transposeWindow(out[:], planes[:live], 64, 0, kmin)
			}
		})
	}
	sinkU64 = planes[0] ^ out[0]
}
