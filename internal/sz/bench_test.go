package sz

import (
	"fmt"
	"testing"

	"lcpio/internal/fpdata"
	"lcpio/internal/wire"
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

// BenchmarkCompressSchedule compresses leading slabs of the NYX rank on a
// 2-worker handle, so the plan has 2, 3 or 16 partitions for the two lanes.
// Compression pairs partitions only beyond the pool's width: 2 partitions
// run alone, as a pool as wide as the partition count would; 3 run as one
// pair and one alone; 16 run as 8 pairs. Run it at -cpu 2.
func BenchmarkCompressSchedule(b *testing.B) {
	f, eb := rankField(b, "NYX", "velocity_x", 1e-3)
	for _, slabs := range []int{8, 12, 128} {
		dims := []int{slabs, f.Dims[1], f.Dims[2]}
		data := f.Data[:slabs*f.Dims[1]*f.Dims[2]]
		_, spans := partitionPlan(dims, nil)
		b.Run(fmt.Sprintf("%dparts", len(spans)), func(b *testing.B) {
			h := NewHandle(2)
			dst, err := h.CompressAppend(nil, data, dims, eb)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dst, err = h.CompressAppend(dst[:0], data, dims, eb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuantizePair is the predict/quantize kernel alone on the first two
// partitions of a field: two quantize3D calls against one quantize3Dx2 pass
// over the same pair, in ns per element. The fields are the sz workloads'
// ranks and the CESM-ATM climate sheet as 2-D, since no workload field is.
func BenchmarkQuantizePair(b *testing.B) {
	type field struct {
		name string
		data []float32
		dims []int
		eb   float64
	}
	var fields []field
	for _, rf := range rankFields {
		f, eb := rankField(b, rf.dataset, rf.field, rf.rel)
		fields = append(fields, field{rf.name, f.Data, f.Dims, eb})
	}
	spec, _ := fpdata.Lookup("CESM-ATM", "")
	cesm := fpdata.Generate(spec, spec.ScaleFor(1<<20), 1)
	lo, hi := cesm.Range()
	fields = append(fields, field{"CESM2D", cesm.Data, []int{cesm.Dims[0] * cesm.Dims[1], cesm.Dims[2]}, 1e-3 * float64(hi-lo)})

	for _, f := range fields {
		splitDepth, spans := partitionPlan(f.dims, nil)
		rowElems := len(f.data)
		for _, d := range f.dims[:splitDepth] {
			rowElems /= d
		}
		rows := spans[0].hi - spans[0].lo
		_, d0, d1, d2 := wire.Collapse(partDims(f.dims, splitDepth, rows, nil))
		n := rows * rowElems
		da, db, eb := f.data[:n], f.data[n:2*n], f.eb
		var q [2]quantBufs
		q[0].sized(n)
		q[1].sized(n)
		run := func(name string, pass func()) {
			b.Run(f.name+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					q[0].exact, q[1].exact = q[0].exact[:0], q[1].exact[:0]
					pass()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*n), "ns/elem")
			})
		}
		run("single", func() {
			quantize3D(da, q[0].recon, q[0].codes, &q[0].exact, d0, d1, d2, 2*eb, eb)
			quantize3D(db, q[1].recon, q[1].codes, &q[1].exact, d0, d1, d2, 2*eb, eb)
		})
		run("paired", func() {
			quantize3Dx2(da, db, q[0].recon, q[1].recon, q[0].codes, q[1].codes, &q[0].exact, &q[1].exact, d0, d1, d2, 2*eb, eb)
		})
	}
}
