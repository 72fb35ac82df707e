// Package container is the compressed-file format over the lossy codecs: a
// header (codec, element width, dims, error bound and a one-row chunk table)
// plus one codec stream of the whole array. Parallelism is the codec's: sz's
// partitions and zfp's shards fan out over the handle's workers, so the
// container adds no partition layer of its own.
package container

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"lcpio/internal/compress"
	"lcpio/internal/lossless"
	"lcpio/internal/wire"
)

const (
	magic   = 0x4C43504B // "LCPK"
	version = 2
)

// ErrCorrupt is returned for malformed containers.
var ErrCorrupt = errors.New("container: corrupt stream")

// Options controls packing and unpacking.
type Options struct {
	// Parallelism is the codec handle's worker count; 0 means GOMAXPROCS.
	Parallelism int
}

// Info describes a parsed container.
type Info struct {
	Codec      string
	Dims       []int
	ErrorBound float64
	// RawBytes and PackedBytes give the overall ratio.
	RawBytes    int64
	PackedBytes int64
}

// Ratio is the overall compression ratio.
func (i Info) Ratio() float64 {
	if i.PackedBytes == 0 {
		return 0
	}
	return float64(i.RawBytes) / float64(i.PackedBytes)
}

// Pack compresses float32 data into a container with the named codec.
func Pack(codecName string, data []float32, dims []int, eb float64, opts Options) ([]byte, error) {
	p, err := NewPacker(codecName, opts)
	if err != nil {
		return nil, err
	}
	return p.Pack(data, dims, eb)
}

// Packer packs many arrays through one codec handle, so repeated Pack calls
// (the checkpoint store compresses one container per rank×field) reuse all
// codec scratch instead of building a handle per call. Output bytes are
// identical to Pack's. A Packer is NOT safe for concurrent use — create one
// per goroutine.
type Packer struct {
	h compress.Handle
}

// NewPacker returns a Packer for the named codec whose handle runs
// opts.Parallelism workers.
func NewPacker(codecName string, opts Options) (*Packer, error) {
	h, err := compress.NewHandle(codecName, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	return &Packer{h: h}, nil
}

// Pack compresses one float32 array: the header, then the codec's stream of
// the whole array appended behind it.
func (p *Packer) Pack(data []float32, dims []int, eb float64) ([]byte, error) {
	if err := wire.CheckDims("container", len(data), dims); err != nil {
		return nil, err
	}
	// Header: magic, version, codec, elem bits, dims, eb, then the chunk
	// table of version 2 with its one row (rows [0, dims[0]) and the
	// stream's size, patched in once the stream is appended).
	var out []byte
	out = wire.AppendUint32(out, magic)
	out = wire.AppendUint32(out, version)
	out = wire.AppendString(out, p.h.Name())
	out = wire.AppendUint32(out, wire.ElemBits)
	out = wire.AppendDims(out, dims)
	out = wire.AppendFloat64(out, eb)
	out = wire.AppendUint32(out, 1)
	out = wire.AppendUint64(out, 0)
	out = wire.AppendUint64(out, uint64(dims[0]))
	sizeAt := len(out)
	out = wire.AppendUint64(out, 0)
	out, err := p.h.CompressAppend(out, data, dims, eb)
	if err != nil {
		return nil, fmt.Errorf("container: compression: %w", err)
	}
	binary.LittleEndian.PutUint64(out[sizeAt:], uint64(len(out)-sizeAt-8))
	return out, nil
}

// parsed is the decoded header plus the codec stream.
type parsed struct {
	info   Info
	n      int // elements the dims describe
	stream []byte
}

func parse(buf []byte) (parsed, error) {
	var p parsed
	rd := wire.NewReader(buf, ErrCorrupt)
	if rd.Uint32() != magic {
		return p, ErrCorrupt
	}
	if v := rd.Uint32(); v != version {
		if rd.Err() != nil {
			return p, ErrCorrupt
		}
		return p, fmt.Errorf("container: unsupported version %d", v)
	}
	p.info.Codec = rd.String(64)
	bits := rd.Uint32()
	if rd.Err() != nil || p.info.Codec == "" {
		return p, ErrCorrupt
	}
	if err := compress.CheckName(p.info.Codec); err != nil {
		return p, err
	}
	if bits != wire.ElemBits {
		return p, fmt.Errorf("container: unsupported element width %d", bits)
	}
	p.info.Dims, p.n = rd.Dims()
	p.info.ErrorBound = rd.Float64()
	rows := rd.Uint32()
	if rd.Err() != nil {
		return p, ErrCorrupt
	}
	if rows != 1 {
		return p, fmt.Errorf("container: %d codec streams, want 1", rows)
	}
	p.info.RawBytes = int64(p.n) * wire.ElemBits / 8
	p.info.PackedBytes = int64(len(buf))
	// The one stream runs to the end of buf: a byte after it would be
	// counted in PackedBytes and lower the ratio Stat reports.
	lo, hi, size := rd.Uint64(), rd.Uint64(), rd.Uint64()
	if rd.Err() != nil || lo != 0 || hi != uint64(p.info.Dims[0]) || size != uint64(rd.Remaining()) {
		return p, ErrCorrupt
	}
	p.stream = buf[rd.Offset():]
	return p, nil
}

// Stat parses a container's metadata without decompressing anything.
func Stat(buf []byte) (Info, error) {
	p, err := parse(buf)
	return p.info, err
}

// Unpack decompresses a float32 container.
func Unpack(buf []byte, opts Options) ([]float32, []int, error) {
	return NewUnpacker(opts).Unpack(buf)
}

// Unpacker unpacks many containers through one codec handle per codec — the
// read-side Packer: repeated calls (a restore decodes one container per
// rank×field, the daemon inflate-verifies one per chunk frame) reuse all
// codec scratch instead of building a handle per call. An Unpacker is NOT
// safe for concurrent use — create one per goroutine.
type Unpacker struct {
	workers int
	// handles holds one handle for each codec seen, built on first use.
	handles map[string]compress.Handle
	// slab is Check's decode target, grown to the largest field seen.
	slab []float32
}

// NewUnpacker returns an Unpacker whose handles run opts.Parallelism
// workers.
func NewUnpacker(opts Options) *Unpacker {
	return &Unpacker{workers: opts.Parallelism, handles: make(map[string]compress.Handle)}
}

// open parses buf, checks that the dims claim no more elements than the
// stream could carry, and returns the handle of the container's codec.
func (u *Unpacker) open(buf []byte) (parsed, compress.Handle, error) {
	p, err := parse(buf)
	if err != nil {
		return p, nil, err
	}
	// Plausibility: every codec spends at least one bit per element before
	// its lossless stage, which expands at most lossless.MaxExpansion bytes
	// per stored byte. A container claiming far more elements than its
	// stream could carry is corrupt, and must not drive the output
	// allocation.
	if uint64(p.n)/8 > uint64(len(p.stream))*lossless.MaxExpansion+1024 {
		return p, nil, ErrCorrupt
	}
	h := u.handles[p.info.Codec]
	if h == nil {
		if h, err = compress.NewHandle(p.info.Codec, u.workers); err != nil {
			return p, nil, err
		}
		u.handles[p.info.Codec] = h
	}
	return p, h, nil
}

// decode decodes p's stream into dst, which holds exactly the container's
// elements: a stream whose own dims are not the container's is corrupt (one
// claiming more lands in an array of the codec's own, never past dst).
func decode(h compress.Handle, p *parsed, dst []float32) error {
	vals, dims, err := h.DecompressInto(dst, p.stream)
	if err != nil {
		return fmt.Errorf("container: decompression: %w", err)
	}
	if !slices.Equal(dims, p.info.Dims) || len(vals) != len(dst) {
		return ErrCorrupt
	}
	return nil
}

// Unpack decompresses one float32 container straight into the output array,
// reusing the Unpacker's handle.
func (u *Unpacker) Unpack(buf []byte) ([]float32, []int, error) {
	p, h, err := u.open(buf)
	if err != nil {
		return nil, nil, err
	}
	out := make([]float32, p.n)
	if err := decode(h, &p, out); err != nil {
		return nil, nil, err
	}
	return out, p.info.Dims, nil
}

// Check decodes a float32 container that must hold exactly elems elements
// and discards the values: it reports what Unpack would — every parse,
// shape and decode error — without materializing the array. The element
// count is checked against the header before anything is decoded, and the
// stream decodes into one slab the Unpacker keeps, so a call allocates only
// when a field is larger than any before.
func (u *Unpacker) Check(buf []byte, elems int) error {
	p, h, err := u.open(buf)
	if err != nil {
		return err
	}
	if p.n != elems {
		return fmt.Errorf("container: holds %d elements, want %d", p.n, elems)
	}
	u.slab = wire.Sized(u.slab, p.n)
	return decode(h, &p, u.slab[:p.n:p.n])
}
