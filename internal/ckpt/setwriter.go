package ckpt

import (
	"fmt"

	"lcpio/internal/obs"
	"lcpio/internal/wire"
)

// This file is what every writer of a set shares: the header and tail
// encoders, the in-order appender Write drains through, and the two helpers
// the svc daemon — which appends chunks at a running offset from HeaderLen as
// session frames arrive, the way Write's drain does — opens and finalizes a
// set through without the format internals leaking out of this package. Such
// a set is read back by the unmodified Restore / VerifySet / ReadManifest
// paths, and when its chunks arrived in index order it is Write's image.
// (Why the daemon does not drain through setWriter itself: DESIGN §5j.)

// HeaderLen is the fixed set header size: the offset of a set's first chunk.
const HeaderLen = headerLen

// setHeader is the fixed header every set starts with.
func setHeader() []byte {
	return wire.AppendUint32(wire.AppendUint32(nil, magic), version)
}

// setTail encodes what closes a set whose payload ends at off: the manifest
// and the footer that locates and authenticates it.
func setTail(m *Manifest, off int64) (manifest, footer []byte) {
	mb := m.encode()
	foot := wire.AppendUint64(nil, uint64(off))
	foot = wire.AppendUint64(foot, uint64(len(mb)))
	foot = wire.AppendUint32(foot, Digest(mb))
	foot = wire.AppendUint32(foot, magic)
	return mb, foot
}

// TailBytes is the size of what closes the set behind its payload: the
// encoded manifest and the footer. A full set's chunk table is fixed-width,
// so the size is known from the geometry before any chunk exists.
func (m *Manifest) TailBytes() int64 { return int64(len(m.encode())) + footerLen }

// setWriter is the in-order half of Write: it appends blobs to the medium
// through the retry path, keeping the byte offset and the simulated drain
// clock — a transfer starts when both the wire is free and the blob exists.
type setWriter struct {
	med    Medium
	opts   WriteOptions
	res    *WriteResult
	offset int64
	clock  float64
}

// put appends blob, which became available availAt seconds into the run.
func (w *setWriter) put(blob []byte, availAt float64) error {
	simSec, err := writeChunk(w.med, blob, w.offset, w.opts, w.res)
	if err != nil {
		return err
	}
	w.res.SimWriteSeconds += simSec
	w.clock = max(w.clock, availAt) + simSec
	w.offset += int64(len(blob))
	return nil
}

// putData is put for a payload blob (a chunk, or a delta set's stored run).
func (w *setWriter) putData(blob []byte, availAt float64) error {
	if err := w.put(blob, availAt); err != nil {
		return err
	}
	w.res.PayloadBytes += int64(len(blob))
	obs.Add("lcpio_ckpt_chunks_written_total", 1)
	obs.Add("lcpio_ckpt_bytes_written_total", int64(len(blob)))
	return nil
}

// WriteSetHeader writes the format header at offset 0 of the medium (or
// medium view) the set occupies.
func WriteSetHeader(med Medium) error {
	if _, err := med.WriteAt(setHeader(), 0); err != nil {
		return fmt.Errorf("ckpt: writing header: %w", err)
	}
	return nil
}

// FinalizeSet encodes m at offset off, appends the footer, and returns the
// total set size — the exact Size() a medium view must report for
// ReadManifest to find the footer. Chunk offsets in m are relative to the
// same view and must land between the header and off.
func FinalizeSet(med Medium, m *Manifest, off int64) (int64, error) {
	if off < headerLen {
		return 0, fmt.Errorf("ckpt: manifest offset %d inside header", off)
	}
	for i, c := range m.Chunks {
		if !validExtent(c.Offset, c.Size, off) {
			return 0, fmt.Errorf("ckpt: chunk %d extent [%d, %d) escapes payload [%d, %d)",
				i, c.Offset, c.Offset+c.Size, headerLen, off)
		}
	}
	mb, foot := setTail(m, off)
	if _, err := med.WriteAt(mb, off); err != nil {
		return 0, fmt.Errorf("ckpt: writing manifest: %w", err)
	}
	if _, err := med.WriteAt(foot, off+int64(len(mb))); err != nil {
		return 0, fmt.Errorf("ckpt: writing footer: %w", err)
	}
	return off + int64(len(mb)) + footerLen, nil
}
