package compress_test

import (
	"fmt"
	"math"
	"testing"

	"lcpio/internal/compress"
	"lcpio/internal/fpdata"
	"lcpio/internal/obs"
)

// benchField is a smooth 64^3 field. Bytes/op is its raw size, so ns/op
// converts to MB/s.
func benchField() ([]float32, []int) {
	const dim = 64
	data := make([]float32, dim*dim*dim)
	for i := range data {
		x := float64(i%dim) / 16
		y := float64((i / dim) % dim)
		data[i] = float32(math.Sin(x) + 0.01*y + 0.3*math.Cos(float64(i)/999))
	}
	return data, []int{dim, dim, dim}
}

// eachBench runs fn as one sub-benchmark per registered codec.
func eachBench(b *testing.B, fn func(b *testing.B, name string, data []float32, dims []int)) {
	data, dims := benchField()
	for _, name := range compress.Names() {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)) * 4)
			b.ReportAllocs()
			fn(b, name, data, dims)
		})
	}
}

// BenchmarkCompressWorkers measures compression throughput at worker counts
// 1/2/4/8.
func BenchmarkCompressWorkers(b *testing.B) {
	eachBench(b, func(b *testing.B, name string, data []float32, dims []int) {
		for _, workers := range []int{1, 2, 4, 8} {
			h := newHandle(b, name, workers)
			b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := h.Compress(data, dims, 1e-3); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}

// BenchmarkDecompressWorkers measures decode throughput at worker counts
// 1/2/4/8.
func BenchmarkDecompressWorkers(b *testing.B) {
	eachBench(b, func(b *testing.B, name string, data []float32, dims []int) {
		buf, err := newHandle(b, name, 0).Compress(data, dims, 1e-3)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			h := newHandle(b, name, workers)
			b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := h.Decompress(buf); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}

// BenchmarkCompressorReuse contrasts a fresh handle per call (cold pools)
// against a reused one whose scratch is warm — the steady state the sz and
// zfp engines are built around.
func BenchmarkCompressorReuse(b *testing.B) {
	eachBench(b, func(b *testing.B, name string, data []float32, dims []int) {
		b.Run("oneshot", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := newHandle(b, name, 0).Compress(data, dims, 1e-3); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("reused", func(b *testing.B) {
			h := newHandle(b, name, 0)
			// One untimed call warms the scratch and sizes dst.
			dst, err := h.CompressAppend(nil, data, dims, 1e-3)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dst, err = h.CompressAppend(dst[:0], data, dims, 1e-3); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkTelemetry measures the cost of the obs spans and counters on the
// compression hot path: "off" with no registry installed (the default), "on"
// with a live registry recording every span (zfp opens one per shard plus
// one per shard transform pass, so it is the worst case).
func BenchmarkTelemetry(b *testing.B) {
	eachBench(b, func(b *testing.B, name string, data []float32, dims []int) {
		h := newHandle(b, name, 0)
		run := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := h.Compress(data, dims, 1e-3); err != nil {
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
	})
}

// BenchmarkCompressNYX and BenchmarkDecompressNYX run a NYX velocity field at
// 1e-3 of its range through each codec's all-core handle.
func BenchmarkCompressNYX(b *testing.B) {
	eachNYX(b, func(b *testing.B, h compress.Handle, f *fpdata.Field, eb float64) {
		var stream []byte
		for i := 0; i < b.N; i++ {
			var err error
			if stream, err = h.Compress(f.Data, f.Dims, eb); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(f.SizeBytes())/float64(len(stream)), "ratio")
	})
}

func BenchmarkDecompressNYX(b *testing.B) {
	eachNYX(b, func(b *testing.B, h compress.Handle, f *fpdata.Field, eb float64) {
		stream, err := h.Compress(f.Data, f.Dims, eb)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := h.Decompress(stream); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func eachNYX(b *testing.B, fn func(b *testing.B, h compress.Handle, f *fpdata.Field, eb float64)) {
	spec, _ := fpdata.Lookup("NYX", "")
	f := fpdata.Generate(spec, 16, 2)
	lo, hi := f.Range()
	for _, name := range compress.Names() {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(f.SizeBytes())
			b.ReportAllocs()
			fn(b, newHandle(b, name, 0), f, 1e-3*float64(hi-lo))
		})
	}
}
