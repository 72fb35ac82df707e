package main

import (
	"sync/atomic"

	"lcpio/internal/ckpt"
)

// ringMedium folds a medium's offsets onto one fixed window of a file, so
// that after the warm-up cycles every write lands on page-cache pages that
// are already dirty, through the same pwrite/pread calls a bare file gets.
// The daemon's append-only medium and the delta workload's per-cycle set
// both live in such a window; only the set a cycle just wrote is ever read
// back. The window is the set's raw size plus 1 MiB: the daemon reserves
// about twice the projected compressed size per set, which fits whenever the
// ratio is 2 or more; a set that overlapped itself would fail its digests
// and be counted as failed.
//
// Why not bare, growing files: this sandbox's block device sustains about
// 10 MB/s, and the kernel paces a process that dirties new pages by its
// estimate of that rate. Writing 20 MB of new pages cost 0.36-0.70 s, writing
// the same 20 MB over dirty pages 0.006-0.06 s; zfp-wirez dump medians moved
// between 41 and 76 MB/s from run to run with the file's growth, and 1.5 GB
// written by earlier runs slowed the following ones. That measured the
// hypervisor's disk quota, not this repository.
type ringMedium struct {
	file   *ckpt.FileMedium
	window int64
	high   atomic.Int64 // logical high-water mark: the Size a reader sees
}

func ringWindow(rawBytes int64) int64 { return rawBytes + 1<<20 }

func (m *ringMedium) Size() int64 { return m.high.Load() }

// fold calls op on each piece of [off, off+len(p)) at its place in the window.
func (m *ringMedium) fold(p []byte, off int64, op func(p []byte, off int64) (int, error)) (int, error) {
	done := 0
	for done < len(p) {
		at := (off + int64(done)) % m.window
		n := min(len(p)-done, int(m.window-at))
		k, err := op(p[done:done+n], at)
		done += k
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

func (m *ringMedium) WriteAt(p []byte, off int64) (int, error) {
	n, err := m.fold(p, off, m.file.WriteAt)
	for end := off + int64(n); ; {
		if cur := m.high.Load(); end <= cur || m.high.CompareAndSwap(cur, end) {
			return n, err
		}
	}
}

func (m *ringMedium) ReadAt(p []byte, off int64) (int, error) {
	return m.fold(p, off, m.file.ReadAt)
}
