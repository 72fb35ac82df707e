package sz

import (
	"fmt"
	"testing"

	"lcpio/internal/bitstream"
	"lcpio/internal/fpdata"
	"lcpio/internal/huffman"
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

// BenchmarkDecompressSchedule is BenchmarkCompressSchedule's decode: the
// same slabs' streams decoded on a 2-worker handle into a reused array, so 2
// partitions run alone, 3 run as one pair and one alone, and 16 as 8 pairs.
// Run it at -cpu 2.
func BenchmarkDecompressSchedule(b *testing.B) {
	f, eb := rankField(b, "NYX", "velocity_x", 1e-3)
	for _, slabs := range []int{8, 12, 128} {
		dims := []int{slabs, f.Dims[1], f.Dims[2]}
		data := f.Data[:slabs*f.Dims[1]*f.Dims[2]]
		_, spans := partitionPlan(dims, nil)
		b.Run(fmt.Sprintf("%dparts", len(spans)), func(b *testing.B) {
			h := NewHandle(2)
			comp, err := h.Compress(data, dims, eb)
			if err != nil {
				b.Fatal(err)
			}
			out := make([]float32, len(data))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := h.DecompressInto(out, comp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// kernelPair is the first two partitions of a field, the input of the
// paired-kernel benchmarks below: each side's data and the shape the
// kernels see.
type kernelPair struct {
	name       string
	a, b       []float32
	d0, d1, d2 int
	eb         float64
}

// kernelPairs are the sz workloads' ranks and the CESM-ATM climate sheet as
// 2-D, since no workload field is.
func kernelPairs(b *testing.B) []kernelPair {
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

	var out []kernelPair
	for _, f := range fields {
		splitDepth, spans := partitionPlan(f.dims, nil)
		rowElems := len(f.data)
		for _, d := range f.dims[:splitDepth] {
			rowElems /= d
		}
		rows := spans[0].hi - spans[0].lo
		_, d0, d1, d2 := wire.Collapse(partDims(f.dims, splitDepth, rows, nil))
		n := rows * rowElems
		out = append(out, kernelPair{f.name, f.data[:n], f.data[n : 2*n], d0, d1, d2, f.eb})
	}
	return out
}

// runKernel times pass as the sub-benchmark kp.name/name, in ns per element
// of the two sides.
func runKernel(b *testing.B, kp kernelPair, name string, pass func()) {
	b.Run(kp.name+"/"+name, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pass()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*len(kp.a)), "ns/elem")
	})
}

// BenchmarkQuantizePair is the predict/quantize kernel alone on the first two
// partitions of a field: two quantize3D calls against one quantize3Dx2 pass
// over the same pair, in ns per element.
func BenchmarkQuantizePair(b *testing.B) {
	for _, kp := range kernelPairs(b) {
		d0, d1, d2, eb := kp.d0, kp.d1, kp.d2, kp.eb
		var q [2]quantBufs
		q[0].sized(len(kp.a))
		q[1].sized(len(kp.b))
		runKernel(b, kp, "single", func() {
			q[0].exact, q[1].exact = q[0].exact[:0], q[1].exact[:0]
			quantize3D(kp.a, q[0].recon, q[0].codes, &q[0].exact, d0, d1, d2, 2*eb, eb)
			quantize3D(kp.b, q[1].recon, q[1].codes, &q[1].exact, d0, d1, d2, 2*eb, eb)
		})
		runKernel(b, kp, "paired", func() {
			q[0].exact, q[1].exact = q[0].exact[:0], q[1].exact[:0]
			quantize3Dx2(kp.a, kp.b, q[0].recon, q[1].recon, q[0].codes, q[1].codes, &q[0].exact, &q[1].exact, d0, d1, d2, 2*eb, eb)
		})
	}
}

// BenchmarkDecodePair is the decode kernel alone on the same pairs, their
// symbols Huffman-coded as a stream codes them: two decode3D calls against
// one decode3Dx2 pass, in ns per element.
func BenchmarkDecodePair(b *testing.B) {
	for _, kp := range kernelPairs(b) {
		d0, d1, d2, twoEB := kp.d0, kp.d1, kp.d2, 2*kp.eb
		var q [2]quantBufs
		var code [2]*huffman.Code
		var bits [2][]byte
		for k, data := range [][]float32{kp.a, kp.b} {
			q[k].sized(len(data))
			quantize3D(data, q[k].recon, q[k].codes, &q[k].exact, d0, d1, d2, twoEB, kp.eb)
			c, err := huffman.Build(huffman.Histogram(q[k].codes, quantCount))
			if err != nil {
				b.Fatal(err)
			}
			w := bitstream.NewWriter(0)
			c.EncodeAll(w, q[k].codes)
			code[k], bits[k] = c, w.Bytes()
		}
		var br [2]bitstream.Reader
		decoder := func(k int) huffman.Decoder {
			br[k].Reset(bits[k])
			return code[k].NewDecoder(&br[k])
		}
		runKernel(b, kp, "single", func() {
			for k := range q {
				d := decoder(k)
				if _, err := decode3D(q[k].recon, &d, q[k].exact, d0, d1, d2, twoEB); err != nil {
					b.Fatal(err)
				}
			}
		})
		runKernel(b, kp, "paired", func() {
			da, db := decoder(0), decoder(1)
			if _, _, ea, eb := decode3Dx2(q[0].recon, q[1].recon, &da, &db, q[0].exact, q[1].exact, d0, d1, d2, twoEB); ea != nil || eb != nil {
				b.Fatal(ea, eb)
			}
		})
	}
}
