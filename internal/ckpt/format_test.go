package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"lcpio/internal/retry"
	"lcpio/internal/wire"
)

func memOf(t testing.TB, image []byte) *MemMedium {
	t.Helper()
	med := NewMemMedium()
	if _, err := med.WriteAt(image, 0); err != nil {
		t.Fatal(err)
	}
	return med
}

// reimage returns image with its manifest replaced by m's encoding under a
// matching footer — a forged set whose manifest digest still checks out, so
// only the parser's own validation stands between it and Restore.
func reimage(image []byte, m *Manifest) []byte {
	mOff := binary.LittleEndian.Uint64(image[len(image)-footerLen:])
	mb := m.encode()
	out := append(append([]byte(nil), image[:mOff]...), mb...)
	out = wire.AppendUint64(out, mOff)
	out = wire.AppendUint64(out, uint64(len(mb)))
	out = wire.AppendUint32(out, Digest(mb))
	return wire.AppendUint32(out, magic)
}

// TestManifestRejectsExtentOverflow forges Offset+Size overflow into each
// kind of stored extent. Every table goes through the same validator, so a
// size that wraps the end-of-extent sum negative is refused for chunks,
// blobs and parity shards alike instead of reaching a make([]byte, Size).
func TestManifestRejectsExtentOverflow(t *testing.T) {
	targets := []struct {
		name, kind string
		last       func(m *Manifest) (off int64, size *int64)
	}{
		{"chunk", "full", func(m *Manifest) (int64, *int64) {
			c := &m.Chunks[len(m.Chunks)-1]
			return c.Offset, &c.Size
		}},
		{"blob", "delta", func(m *Manifest) (int64, *int64) {
			b := &m.Blobs[len(m.Blobs)-1]
			return b.Offset, &b.Size
		}},
		{"parity shard", "parity", func(m *Manifest) (int64, *int64) {
			c := &m.ParityChunks[len(m.ParityChunks)-1]
			return c.Offset, &c.Size
		}},
	}
	kinds := make(map[string]writeKind)
	for _, k := range writeKinds(t) {
		kinds[k.name] = k
	}
	for _, tc := range targets {
		k := kinds[tc.kind]
		clean := NewMemMedium()
		k.opts.Workers = 2
		mustWrite(t, clean, k.set, k.opts)
		for i := 0; i < 3; i++ {
			m, err := ReadManifest(clean)
			if err != nil {
				t.Fatal(err)
			}
			off, size := tc.last(m)
			*size = []int64{math.MaxInt64, math.MaxInt64 - off + 1, -1}[i]
			name := fmt.Sprintf("%s size=%d", tc.name, *size)
			forged := memOf(t, reimage(clean.Bytes(), m))
			if _, err := ReadManifest(forged); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: ReadManifest = %v, want ErrCorrupt", name, err)
			}
			if _, err := Restore(forged, RestoreOptions{Workers: 2, AllowPartial: true, Bases: k.bases,
				Retry: retry.Policy{MaxAttempts: 2}}); err == nil {
				t.Errorf("%s: Restore accepted the forged set", name)
			}
		}
	}
}
