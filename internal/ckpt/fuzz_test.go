package ckpt

import (
	"errors"
	"math"
	"testing"

	"lcpio/internal/dedup"
	"lcpio/internal/wire"
)

// fuzzSetBytes builds one small valid checkpoint set to seed the corpus.
func fuzzSetBytes(f *testing.F) []byte {
	f.Helper()
	dims := []int{4, 16}
	elems := dims[0] * dims[1]
	mk := func(shift int) []float32 {
		d := make([]float32, elems)
		for i := range d {
			d[i] = float32((i+shift)%13) * 0.25
		}
		return d
	}
	set := Set{
		Name:  "fz",
		Meta:  "fuzz seed",
		Codec: "sz",
		Ranks: 2,
		Fields: []Field{
			{Name: "a", Dims: dims, ErrorBound: 1e-3, Data: [][]float32{mk(0), mk(5)}},
			{Name: "b", Dims: dims, ErrorBound: 1e-2, Data: [][]float32{mk(9), mk(2)}},
		},
	}
	med := NewMemMedium()
	if _, err := Write(med, set, WriteOptions{Workers: 2}); err != nil {
		f.Fatal(err)
	}
	return append([]byte(nil), med.Bytes()...)
}

// FuzzReadManifest drives the manifest decoder with corrupted sets.
// Contract: a structurally coherent manifest or an error — never a panic,
// and never an allocation the footer-declared sizes could not plausibly
// back (the parser caps every count before allocating).
func FuzzReadManifest(f *testing.F) {
	full := fuzzSetBytes(f)

	f.Add([]byte(nil))
	f.Add(full)
	f.Add(full[:headerLen])
	// Truncations: mid-payload, mid-manifest, mid-footer.
	for _, cut := range []int{1, headerLen + 3, len(full) / 2, len(full) - footerLen - 2,
		len(full) - footerLen, len(full) - 10, len(full) - 1} {
		if cut >= 0 && cut < len(full) {
			f.Add(full[:cut])
		}
	}
	// Bit flips over the header, chunk bytes, manifest counts, and footer
	// (offset, length, CRC, magic).
	for _, pos := range []int{0, 4, headerLen + 1, len(full) / 3,
		len(full) - footerLen - 20, len(full) - footerLen - 4,
		len(full) - footerLen + 1, len(full) - footerLen + 9,
		len(full) - 7, len(full) - 2} {
		if pos >= 0 && pos < len(full) {
			c := append([]byte(nil), full...)
			c[pos] ^= 0x20
			f.Add(c)
		}
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		med := NewMemMedium()
		if len(in) > 0 {
			if _, err := med.WriteAt(in, 0); err != nil {
				t.Fatal(err)
			}
		}
		m, err := ReadManifest(med)
		if err != nil {
			return
		}
		// A manifest that decodes must be internally coherent and must
		// stay inside the bytes it came from.
		if m.Ranks <= 0 || m.Ranks > maxRanks || len(m.Fields) == 0 || len(m.Fields) > maxFields {
			t.Fatalf("incoherent counts: ranks=%d fields=%d", m.Ranks, len(m.Fields))
		}
		if len(m.Chunks) != m.NumChunks() {
			t.Fatalf("chunk table %d entries, want %d", len(m.Chunks), m.NumChunks())
		}
		size := int64(len(in))
		for _, c := range m.Chunks {
			if c.Offset < headerLen || c.Size < 0 || c.Offset+c.Size > size {
				t.Fatalf("chunk %+v escapes file of %d bytes", c, size)
			}
		}
		for _, fd := range m.Fields {
			if fd.Name == "" || len(fd.Dims) == 0 || len(fd.Dims) > wire.MaxDims {
				t.Fatalf("incoherent field %+v", fd)
			}
			if fd.Elems() <= 0 || fd.Elems() > wire.MaxElems {
				t.Fatalf("field %q implies %d elems", fd.Name, fd.Elems())
			}
		}
		// Restore on a decodable manifest must never panic; partial mode
		// must degrade to explicit chunk errors rather than failing hard.
		if got, err := Restore(med, RestoreOptions{Workers: 2, AllowPartial: true,
			Retry: RetryPolicy{MaxAttempts: 2}}); err == nil {
			if got.Report.ChunksOK+len(got.Report.Failed) != m.NumChunks() {
				t.Fatalf("report covers %d+%d chunks of %d",
					got.Report.ChunksOK, len(got.Report.Failed), m.NumChunks())
			}
		}
	})
}

// fuzzDeltaBytes writes a full set plus an incremental set on top of it and
// returns both byte images. The delta carries every delta-set structure the decoder
// must survive corruption of: the blob table, per-stream chunk-ref streams
// with base refs, refcounts, the base pin, and the chain depth.
func fuzzDeltaBytes(f *testing.F) (full, delta []byte) {
	f.Helper()
	dims := []int{8, 48}
	elems := dims[0] * dims[1]
	mk := func(shift int) []float32 {
		d := make([]float32, elems)
		for i := range d {
			d[i] = float32((i*7+shift)%29) * 0.125
		}
		return d
	}
	set := Set{
		Name:  "fz-full",
		Meta:  "fuzz seed",
		Codec: "sz",
		Ranks: 2,
		Fields: []Field{
			{Name: "a", Dims: dims, ErrorBound: 1e-3, Data: [][]float32{mk(0), mk(5)}},
			{Name: "b", Dims: dims, ErrorBound: 1e-2, Data: [][]float32{mk(9), mk(2)}},
		},
	}
	baseMed := NewMemMedium()
	p := dedup.Params{MinSize: 64, AvgSize: 256, MaxSize: 1024}
	if _, err := Write(baseMed, set, WriteOptions{Workers: 2}); err != nil {
		f.Fatal(err)
	}
	base, err := OpenBase(baseMed, nil, p, RestoreOptions{Workers: 2})
	if err != nil {
		f.Fatal(err)
	}
	// Churn a slice of one rank of one field so the delta holds a mix of
	// base refs and local blobs.
	next := set
	next.Name = "fz-delta"
	d := append([]float32(nil), set.Fields[0].Data[1]...)
	for i := elems / 3; i < elems/2; i++ {
		d[i] += 0.5
	}
	next.Fields[0].Data = [][]float32{set.Fields[0].Data[0], d}
	deltaMed := NewMemMedium()
	if _, err := Write(deltaMed, next, WriteOptions{Workers: 2, Base: base}); err != nil {
		f.Fatal(err)
	}
	return append([]byte(nil), baseMed.Bytes()...), append([]byte(nil), deltaMed.Bytes()...)
}

// FuzzReadManifestDelta drives the manifest decoder with corrupted
// incremental sets: truncations, bit flips across the blob table and ref
// streams (dangling base refs, refcount mismatches, oversized RawLens), and
// a damaged base pin. Contract: decode yields a coherent manifest or an
// error — never a panic, never an unbounded allocation — and a restore over
// a damaged base chain fails with an ErrBase kind, not a crash.
func FuzzReadManifestDelta(f *testing.F) {
	full, delta := fuzzDeltaBytes(f)

	f.Add(delta)
	f.Add(delta[:headerLen])
	// Truncations through the payload, blob table, ref streams, and footer.
	for _, cut := range []int{headerLen + 1, len(delta) / 4, len(delta) / 2,
		len(delta) - footerLen - 40, len(delta) - footerLen, len(delta) - 3} {
		if cut >= 0 && cut < len(delta) {
			f.Add(delta[:cut])
		}
	}
	// Bit flips marching through the manifest region (the file tail holds
	// BaseName/pin/chain depth, dedup params, the blob table, and every
	// chunk-ref stream), plus a few in the payload.
	for pos := len(delta) - footerLen - 1; pos > len(delta)*2/3; pos -= 5 {
		c := append([]byte(nil), delta...)
		c[pos] ^= 0x11
		f.Add(c)
	}
	for _, pos := range []int{headerLen + 2, len(delta) / 3} {
		c := append([]byte(nil), delta...)
		c[pos] ^= 0x80
		f.Add(c)
	}
	// A forged blob table under a valid manifest digest: the last blob's
	// Size wraps Offset+Size negative, which the extent check must refuse
	// before Restore sizes a read buffer from it.
	forged, err := ReadManifest(memOf(f, delta))
	if err != nil {
		f.Fatal(err)
	}
	forged.Blobs[len(forged.Blobs)-1].Size = math.MaxInt64
	f.Add(reimage(delta, forged))

	f.Fuzz(func(t *testing.T, in []byte) {
		med := NewMemMedium()
		if len(in) > 0 {
			if _, err := med.WriteAt(in, 0); err != nil {
				t.Fatal(err)
			}
		}
		m, err := ReadManifest(med)
		if err != nil {
			return
		}
		size := int64(len(in))
		if m.IsDelta() {
			if m.ChainDepth < 1 || m.ChainDepth > maxChainDepth {
				t.Fatalf("chain depth %d escaped validation", m.ChainDepth)
			}
			if m.BaseName == "" {
				t.Fatal("delta manifest without base name")
			}
			// Every blob must live inside the file and declare a raw length
			// the chunker could have produced.
			for i, b := range m.Blobs {
				if b.Offset < headerLen || b.Size < 0 || b.Offset+b.Size > size {
					t.Fatalf("blob %d %+v escapes file of %d bytes", i, b, size)
				}
				if b.RawLen <= 0 || b.RawLen > dedup.MaxChunkSize {
					t.Fatalf("blob %d raw length %d", i, b.RawLen)
				}
			}
			// Ref streams must tile each field exactly and index real blobs
			// (the decoder recomputes refcounts against the wire values).
			if len(m.Entries) != m.NumChunks() {
				t.Fatalf("%d ref streams for %d chunks", len(m.Entries), m.NumChunks())
			}
			for s, stream := range m.Entries {
				var sum int64
				for _, e := range stream {
					if e.Blob >= len(m.Blobs) || e.Blob < -1 {
						t.Fatalf("stream %d ref to blob %d of %d", s, e.Blob, len(m.Blobs))
					}
					sum += int64(e.RawLen)
				}
				fd := m.Fields[s%len(m.Fields)]
				if sum != int64(fd.Elems()*4) {
					t.Fatalf("stream %d tiles %d bytes, field holds %d", s, sum, fd.Elems()*4)
				}
			}
		}
		// A decodable delta restored without its chain must fail with the
		// ErrBase kind; with a pristine chain it must either restore or
		// fail cleanly (payload corruption) — never panic.
		if m.IsDelta() {
			if _, err := Restore(med, RestoreOptions{Workers: 2}); !errors.Is(err, ErrBase) {
				t.Fatalf("chainless delta restore: %v, want ErrBase", err)
			}
			baseMed := NewMemMedium()
			if _, err := baseMed.WriteAt(full, 0); err != nil {
				t.Fatal(err)
			}
			_, _ = Restore(med, RestoreOptions{Workers: 2, AllowPartial: true,
				Bases: []Medium{baseMed}})
		}
	})
}
