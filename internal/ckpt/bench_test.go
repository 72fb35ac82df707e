package ckpt

import (
	"math"
	"runtime"
	"testing"
)

// benchSet builds a larger smooth set so compression dominates enough for
// the pipeline overlap to be visible.
func benchSet(ranks, elems int) Set {
	side := int(math.Sqrt(float64(elems)))
	dims := []int{side, side}
	n := side * side
	mk := func(rank, field int) []float32 {
		d := make([]float32, n)
		for i := range d {
			x := float64(i%side) / float64(side)
			y := float64(i/side) / float64(side)
			d[i] = float32(math.Sin(8*x+float64(rank)) * math.Cos(5*y+float64(field)))
		}
		return d
	}
	fields := []Field{
		{Name: "rho", Dims: dims, ErrorBound: 1e-3},
		{Name: "vx", Dims: dims, ErrorBound: 1e-4},
		{Name: "vy", Dims: dims, ErrorBound: 1e-4},
	}
	for fi := range fields {
		for r := 0; r < ranks; r++ {
			fields[fi].Data = append(fields[fi].Data, mk(r, fi))
		}
	}
	return Set{Name: "bench", Meta: "bench", Codec: "sz", Ranks: ranks, Fields: fields}
}

func benchWrite(b *testing.B, workers int) {
	set := benchSet(8, 1<<16)
	b.ReportAllocs()
	b.SetBytes(int64(8 * 3 * (1 << 16) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Write(NewMemMedium(), set, WriteOptions{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteSerial(b *testing.B)    { benchWrite(b, 1) }
func BenchmarkWritePipelined(b *testing.B) { benchWrite(b, runtime.GOMAXPROCS(0)) }

func BenchmarkRestore(b *testing.B) {
	set := benchSet(8, 1<<16)
	med := NewMemMedium()
	if _, err := Write(med, set, WriteOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(8 * 3 * (1 << 16) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Restore(med, RestoreOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
