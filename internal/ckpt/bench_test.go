package ckpt

import (
	"math"
	"runtime"
	"testing"

	"lcpio/internal/compress"
	"lcpio/internal/dedup"
	"lcpio/internal/fpdata"
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

// deltaBench is the bench/ delta-parity workload's input (bench/workloads.go):
// 8 NYX velocity_x ranks of 2 Mi elements under the seed-0 realization's
// rel 1e-3 bound, written with 2 parity ranks, and the next state with a
// rank-staggered contiguous 10 % of every rank moved by 10 bounds.
type deltaBench struct {
	next    Set
	baseMed *MemMedium
	raw     int64
}

func newDeltaBench(b *testing.B) *deltaBench {
	b.Helper()
	const ranks, parity = 8, 2
	spec, err := fpdata.Lookup("NYX", "velocity_x")
	if err != nil {
		b.Fatal(err)
	}
	scale := spec.ScaleFor(2 << 20)
	ref := fpdata.Generate(spec, scale, 0)
	f := Field{Name: spec.Field, Dims: ref.Dims, ErrorBound: compress.AbsBoundFromRelative(1e-3, ref.Data)}
	nf := f
	for r := 0; r < ranks; r++ {
		d := fpdata.Generate(spec, scale, int64(1+r)).Data
		c := append([]float32(nil), d...)
		n := len(c) / 10
		start := (1 + r*31) % (len(c) - n + 1)
		for i := start; i < start+n; i++ {
			c[i] += float32(10 * f.ErrorBound)
		}
		f.Data, nf.Data = append(f.Data, d), append(nf.Data, c)
	}
	db := &deltaBench{
		next:    Set{Name: "bench-next", Codec: "sz", Ranks: ranks, Fields: []Field{nf}},
		baseMed: NewMemMedium(),
		raw:     int64(ranks) * int64(len(ref.Data)) * 4,
	}
	set := Set{Name: "bench-base", Codec: "sz", Ranks: ranks, Fields: []Field{f}}
	if _, err := Write(db.baseMed, set, WriteOptions{Workers: 2, ParityRanks: parity}); err != nil {
		b.Fatal(err)
	}
	return db
}

func (db *deltaBench) openBase(b *testing.B) *Base {
	b.Helper()
	base, err := OpenBase(db.baseMed, nil, dedup.Params{}, RestoreOptions{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	return base
}

func (db *deltaBench) start(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(db.raw)
	b.ResetTimer()
}

// BenchmarkDeltaWrite is the delta-parity workload's write half: classify
// every chunk against the base, compress the churned runs, fold parity.
func BenchmarkDeltaWrite(b *testing.B) {
	db := newDeltaBench(b)
	base := db.openBase(b)
	db.start(b)
	for i := 0; i < b.N; i++ {
		if _, err := Write(NewMemMedium(), db.next, WriteOptions{Workers: 2, ParityRanks: 2, Base: base}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChainRestore restores the delta set through its base.
func BenchmarkChainRestore(b *testing.B) {
	db := newDeltaBench(b)
	med := NewMemMedium()
	if _, err := Write(med, db.next, WriteOptions{Workers: 2, ParityRanks: 2, Base: db.openBase(b)}); err != nil {
		b.Fatal(err)
	}
	db.start(b)
	for i := 0; i < b.N; i++ {
		if _, err := Restore(med, RestoreOptions{Workers: 2, Bases: []Medium{db.baseMed}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLostRankRestore restores the base set with one rank's chunk
// damaged beyond re-reads, so it is rebuilt from the parity stripe.
func BenchmarkLostRankRestore(b *testing.B) {
	db := newDeltaBench(b)
	m, err := ReadManifest(db.baseMed)
	if err != nil {
		b.Fatal(err)
	}
	c := m.Chunk(3, 0)
	db.baseMed.Corrupt(c.Offset + c.Size/2)
	db.start(b)
	for i := 0; i < b.N; i++ {
		res, err := Restore(db.baseMed, RestoreOptions{Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.ChunksReconstructed != 1 {
			b.Fatalf("reconstructed %d chunks, want 1", res.Report.ChunksReconstructed)
		}
	}
}
