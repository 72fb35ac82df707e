package ckpt

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"lcpio/internal/netsim"
)

// Medium is the byte store a checkpoint set lands on: positional reads and
// writes plus the current size. Implementations must be safe for concurrent
// ReadAt calls (restore fans chunks across workers); WriteAt is only ever
// called from the single writer goroutine.
type Medium interface {
	io.ReaderAt
	io.WriterAt
	Size() int64
}

// ErrTransient marks a medium fault that a retry may clear; the pipelined
// writer retries these with capped exponential backoff.
var ErrTransient = errors.New("ckpt: transient medium fault")

// MemMedium is an in-memory Medium, the default for tests and simulations.
type MemMedium struct {
	mu  sync.RWMutex
	buf []byte
}

// NewMemMedium returns an empty in-memory medium.
func NewMemMedium() *MemMedium { return &MemMedium{} }

// Size returns the current high-water mark.
func (m *MemMedium) Size() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return int64(len(m.buf))
}

// Bytes returns the stored bytes. The slice aliases the medium; callers
// must not write through it while the medium is in use.
func (m *MemMedium) Bytes() []byte {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.buf
}

// WriteAt stores p at off, growing the medium as needed.
func (m *MemMedium) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("ckpt: negative offset %d", off)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if end := off + int64(len(p)); end > int64(len(m.buf)) {
		grown := make([]byte, end)
		copy(grown, m.buf)
		m.buf = grown
	}
	copy(m.buf[off:], p)
	return len(p), nil
}

// ReadAt fills p from off.
func (m *MemMedium) ReadAt(p []byte, off int64) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if off < 0 || off > int64(len(m.buf)) {
		return 0, fmt.Errorf("ckpt: offset %d outside medium of %d bytes", off, len(m.buf))
	}
	n := copy(p, m.buf[off:])
	if n < len(p) {
		return n, io.ErrUnexpectedEOF
	}
	return n, nil
}

// Corrupt flips one bit at off — a test hook for persistent bit rot.
func (m *MemMedium) Corrupt(off int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off >= 0 && off < int64(len(m.buf)) {
		m.buf[off] ^= 0x40
	}
}

// FileMedium is a Medium over an operating-system file.
type FileMedium struct {
	f *os.File
}

// CreateFileMedium creates (or truncates) path for writing a new set.
func CreateFileMedium(path string) (*FileMedium, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &FileMedium{f: f}, nil
}

// OpenFileMedium opens an existing set read-only.
func OpenFileMedium(path string) (*FileMedium, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &FileMedium{f: f}, nil
}

// Size stats the underlying file.
func (m *FileMedium) Size() int64 {
	fi, err := m.f.Stat()
	if err != nil {
		return 0
	}
	return fi.Size()
}

// WriteAt forwards to the file.
func (m *FileMedium) WriteAt(p []byte, off int64) (int, error) { return m.f.WriteAt(p, off) }

// ReadAt forwards to the file.
func (m *FileMedium) ReadAt(p []byte, off int64) (int, error) { return m.f.ReadAt(p, off) }

// Close closes the underlying file.
func (m *FileMedium) Close() error { return m.f.Close() }

// FaultProfile configures a FaultyMedium. All probabilities are per call.
type FaultProfile struct {
	// WriteErrProb: WriteAt fails entirely with ErrTransient.
	WriteErrProb float64
	// ShortWriteProb: WriteAt persists only a prefix and reports
	// ErrTransient, so the writer must resume the tail.
	ShortWriteProb float64
	// ReadCorruptProb: the FIRST ReadAt covering an offset returns bytes
	// with one bit flipped; re-reads of the same offset are clean. This is
	// the transient-corruption model that makes "re-read only corrupted
	// chunks" observable.
	ReadCorruptProb float64
	// ReadErrProb: ReadAt fails with ErrTransient.
	ReadErrProb float64
}

// FaultyMedium wraps a Medium with deterministic seeded transient faults.
// Safe for concurrent use (a mutex serializes the injector).
type FaultyMedium struct {
	mu        sync.Mutex
	inner     Medium
	inj       *netsim.Injector
	prof      FaultProfile
	corrupted map[int64]bool // offsets already served one corrupted read
}

// NewFaultyMedium wraps inner with the profile, seeded deterministically.
func NewFaultyMedium(inner Medium, seed int64, prof FaultProfile) *FaultyMedium {
	return &FaultyMedium{
		inner:     inner,
		inj:       netsim.NewInjector(seed),
		prof:      prof,
		corrupted: make(map[int64]bool),
	}
}

// Size forwards to the wrapped medium.
func (m *FaultyMedium) Size() int64 { return m.inner.Size() }

// WriteAt may fail transiently or persist only a prefix.
func (m *FaultyMedium) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	writeErr := m.inj.Hit(m.prof.WriteErrProb)
	short := !writeErr && len(p) > 1 && m.inj.Hit(m.prof.ShortWriteProb)
	frac := 0.0
	if short {
		frac = 0.1 + 0.8*m.inj.Uniform()
	}
	m.mu.Unlock()
	if writeErr {
		return 0, fmt.Errorf("%w: write at %d", ErrTransient, off)
	}
	if short {
		n := int(frac * float64(len(p)))
		if n < 1 {
			n = 1
		}
		if n >= len(p) {
			n = len(p) - 1
		}
		wrote, err := m.inner.WriteAt(p[:n], off)
		if err != nil {
			return wrote, err
		}
		return wrote, fmt.Errorf("%w: short write at %d (%d of %d bytes)",
			ErrTransient, off, wrote, len(p))
	}
	return m.inner.WriteAt(p, off)
}

// ReadAt may fail transiently or corrupt the first read of a region.
func (m *FaultyMedium) ReadAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	readErr := m.inj.Hit(m.prof.ReadErrProb)
	corrupt := !readErr && len(p) > 0 && !m.corrupted[off] && m.inj.Hit(m.prof.ReadCorruptProb)
	if corrupt {
		m.corrupted[off] = true
	}
	m.mu.Unlock()
	if readErr {
		return 0, fmt.Errorf("%w: read at %d", ErrTransient, off)
	}
	n, err := m.inner.ReadAt(p, off)
	if corrupt && n > 0 {
		p[n/2] ^= 0x04
	}
	return n, err
}
