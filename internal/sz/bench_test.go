package sz

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

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
		y := float64((i / dim) % dim)
		data[i] = float32(math.Sin(x) + 0.01*y + 0.3*math.Cos(float64(i)/999))
	}
	return data, dims
}

// BenchmarkCompressWorkers measures compression throughput at worker counts
// 1/2/4/8. Bytes/op is the raw input size, so ns/op converts to MB/s.
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

// BenchmarkDecompressWorkers measures decode throughput at worker counts.
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
// with a live registry recording every span.
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
