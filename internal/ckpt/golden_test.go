package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lcpio/internal/dedup"
)

var updateGolden = flag.Bool("update", false, "rewrite golden checkpoint images")

// goldenSet is the fixed input behind the pinned byte images. Any
// change here invalidates testdata/*.lcpt — regenerate with -update and
// justify the format change in DESIGN.md.
func goldenSet() Set {
	dims := []int{6, 20}
	elems := dims[0] * dims[1]
	mk := func(shift int) []float32 {
		d := make([]float32, elems)
		for i := range d {
			d[i] = float32((i*11+shift)%17)*0.5 - 4
		}
		return d
	}
	return Set{
		Name:  "golden",
		Meta:  "golden fixture",
		Codec: "sz",
		Ranks: 3,
		Fields: []Field{
			{Name: "rho", Dims: dims, ErrorBound: 1e-3,
				Data: [][]float32{mk(0), mk(3), mk(8)}},
			{Name: "vx", Dims: dims, ErrorBound: 1e-2,
				Data: [][]float32{mk(1), mk(7), mk(4)}},
		},
	}
}

// goldenDeltaSet is goldenSet one step later: the middle third of rank 1's
// rho moved well past its bound, everything else unchanged.
func goldenDeltaSet() Set {
	set := goldenSet()
	set.Name = "golden-delta"
	d := set.Fields[0].Data[1]
	for i := len(d) / 3; i < 2*len(d)/3; i++ {
		d[i] += 0.75
	}
	return set
}

// TestGoldenFormatBytes pins the wire image of the one set format in its
// three shapes — full, full with parity, and a delta with parity written
// against the pinned full image — and checks each pinned image still
// restores within bound and deep-verifies. A mismatch means the on-disk
// format drifted: bump `version`, regenerate with -update, and justify the
// change in DESIGN.md.
func TestGoldenFormatBytes(t *testing.T) {
	cases := []struct {
		file  string
		set   Set
		opts  WriteOptions
		delta bool
	}{
		{"golden_full.lcpt", goldenSet(), WriteOptions{Workers: 2}, false},
		{"golden_parity.lcpt", goldenSet(), WriteOptions{Workers: 2, ParityRanks: 1}, false},
		{"golden_delta_parity.lcpt", goldenDeltaSet(), WriteOptions{Workers: 2, ParityRanks: 1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			var bases []Medium
			if tc.delta {
				full, err := os.ReadFile(filepath.Join("testdata", cases[0].file))
				if err != nil {
					t.Fatal(err)
				}
				bases = []Medium{memOf(t, full)}
				tc.opts.Base, err = OpenBase(bases[0], nil,
					dedup.Params{MinSize: 32, AvgSize: 64, MaxSize: 128}, RestoreOptions{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
			}
			med := NewMemMedium()
			if _, err := Write(med, tc.set, tc.opts); err != nil {
				t.Fatal(err)
			}
			got := med.Bytes()
			path := filepath.Join("testdata", tc.file)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("Write emits %d bytes that differ from the pinned image (%d bytes): "+
					"the wire format drifted", len(got), len(want))
			}

			checkGoldenImage(t, med, bases, tc.set, tc.delta, tc.opts.ParityRanks)
		})
	}
}

// checkGoldenImage holds a pinned image to what a reader must get from it:
// the set's shape, a restore within bound, a clean deep verify.
func checkGoldenImage(t *testing.T, med Medium, bases []Medium, set Set, delta bool, parity int) {
	t.Helper()
	m, err := ReadManifest(med)
	if err != nil {
		t.Fatal(err)
	}
	if m.IsDelta() != delta || m.ParityRanks != parity {
		t.Fatalf("image decodes as delta=%v parity=%d", m.IsDelta(), m.ParityRanks)
	}
	if delta && (len(m.Blobs) == 0 || m.RefRawBytes() == 0) {
		t.Fatalf("delta image pins no mix of blobs and base refs: %d blobs, %d ref bytes",
			len(m.Blobs), m.RefRawBytes())
	}
	res, err := Restore(med, RestoreOptions{Workers: 2, Bases: bases})
	if err != nil {
		t.Fatal(err)
	}
	checkRestored(t, set, res)
	rep, err := VerifySet(med, VerifyOptions{Deep: true, Workers: 2, Bases: bases})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) > 0 || len(rep.ParityFailed) > 0 || rep.BaseErr != nil || rep.RefsOK != rep.RefChunks {
		t.Fatalf("pinned image fails deep verify: %+v", rep)
	}
}

// TestGoldenDeltaDigestFirstStillReads: golden_delta_parity_digest_first.lcpt
// is the delta image the writer emitted while it looked every chunk up in the
// base's digest index before trying the bound. The unchanged chunks of the
// golden set repeat across ranks, so each was referenced at the index's
// first-seen location; the writer now references them at their own position,
// where neighbours merge into one entry (1377 → 933 bytes). The parse did not
// change and `version` did not move, so sets written that way must keep
// restoring within bound and deep-verifying against the same base. Nothing
// rewrites this file.
func TestGoldenDeltaDigestFirstStillReads(t *testing.T) {
	read := func(name string) Medium {
		image, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return memOf(t, image)
	}
	checkGoldenImage(t, read("golden_delta_parity_digest_first.lcpt"),
		[]Medium{read("golden_full.lcpt")}, goldenDeltaSet(), true, 1)
}

// TestOtherVersionsRefused: a set stamped with any version but the current
// one — the three retired per-feature layouts included — is refused as
// unsupported, not misparsed and not reported as corruption.
func TestOtherVersionsRefused(t *testing.T) {
	image, err := os.ReadFile(filepath.Join("testdata", "golden_full.lcpt"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(memOf(t, image))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{0, 1, 2, 3, version + 1} {
		mb := m.encode()
		binary.LittleEndian.PutUint32(mb[4:], v)
		_, err := parseManifest(mb, int64(len(image)))
		if err == nil || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unsupported version") {
			t.Errorf("version %d: %v, want unsupported version", v, err)
		}
	}
}
