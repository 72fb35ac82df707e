package zfp

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

	"lcpio/internal/fpdata"
	"lcpio/internal/obs"
)

// benchDim returns the cube edge for benchmark fields. scripts/bench.sh sets
// LCPIO_BENCH_DIM=256 for the acceptance run; the default stays small so
// `go test -bench` finishes quickly on laptops.
func benchDim() int {
	if s := os.Getenv("LCPIO_BENCH_DIM"); s != "" {
		if d, err := strconv.Atoi(s); err == nil && d >= 8 {
			return d
		}
	}
	return 64
}

func benchField(dim int) ([]float32, []int) {
	dims := []int{dim, dim, dim}
	data := make([]float32, dim*dim*dim)
	for i := range data {
		x := float64(i%dim) / 16
		z := float64(i / (dim * dim))
		data[i] = float32(math.Cos(x)*2 + 0.05*z + 0.2*math.Sin(float64(i)/777))
	}
	return data, dims
}

// BenchmarkCompressWorkers measures fixed-accuracy compression throughput at
// worker counts 1/2/4/8. Bytes/op is the raw input size, so ns/op converts
// to MB/s.
func BenchmarkCompressWorkers(b *testing.B) {
	data, dims := benchField(benchDim())
	raw := int64(len(data)) * 4
	for _, workers := range []int{1, 2, 4, 8} {
		c := NewHandle(workers)
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(raw)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Compress(data, dims, 1e-3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecompressWorkers measures shard-parallel decode throughput.
func BenchmarkDecompressWorkers(b *testing.B) {
	data, dims := benchField(benchDim())
	raw := int64(len(data)) * 4
	buf, err := Compress(data, dims, 1e-3)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		d := NewHandle(workers)
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(raw)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := d.Decompress(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompressorReuse contrasts the one-shot package function (fresh
// handle, cold pools every call) against a reused Handle whose scratch
// pools are warm — the zero-alloc steady state the engine is built around.
func BenchmarkCompressorReuse(b *testing.B) {
	data, dims := benchField(benchDim())
	raw := int64(len(data)) * 4
	b.Run("oneshot", func(b *testing.B) {
		b.SetBytes(raw)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Compress(data, dims, 1e-3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		c := NewHandle(0)
		// One untimed call warms the scratch pools and sizes dst — the
		// steady state this benchmark exists to measure.
		dst, err := c.CompressAppend(nil, data, dims, 1e-3)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(raw)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := c.CompressAppend(dst[:0], data, dims, 1e-3)
			if err != nil {
				b.Fatal(err)
			}
			if cap(out) > cap(dst) {
				dst = out
			}
		}
	})
}

// BenchmarkTelemetry measures the cost of the obs spans and counters on the
// compression hot path: "off" with no registry installed (the default), "on"
// with a live registry recording every span (zfp opens one per shard plus
// one per shard transform pass, so this is its worst case).
func BenchmarkTelemetry(b *testing.B) {
	data, dims := benchField(benchDim())
	raw := int64(len(data)) * 4
	c := NewHandle(0)
	run := func(b *testing.B) {
		b.SetBytes(raw)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Compress(data, dims, 1e-3); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", run)
	b.Run("on", func(b *testing.B) {
		obs.Use(obs.NewRegistry())
		defer obs.Use(nil)
		run(b)
	})
}

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

// BenchmarkTransposeWindow times the plane transpose alone on a
// 64-coefficient block, in both directions, at live-plane counts either side
// of its pack thresholds: NYX at rel 1e-3 codes 7 to 15 planes a block,
// float64 streams up to 62; 64 is the full-width transpose.
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
