package sz

import (
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

// rankFields are the sz workloads' fields: NYX velocity_x, where
// predict/quantize and the Lorenzo reconstruction own the time, and HACC vx,
// whose wide residual alphabet puts the entropy and lossless stages in front.
var rankFields = []struct {
	name, dataset, field string
	rel                  float64
}{
	{"NYX3D", "NYX", "velocity_x", 1e-3}, // sz-smooth, delta-parity
	{"HACC1D", "HACC", "vx", 1e-4},       // sz-noisy
}

// BenchmarkCompressRank is the single-thread compress of one rank on a reused
// Handle into a reused buffer, so ns/op is the per-rank CPU cost of a dump.
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
// reused Handle, landing in a reused array, so ns/op is the per-rank CPU cost
// of a restore.
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
