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
	"math"
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

// codecNames are the registry's names, which a parse hands out in place of
// a copy of the header's bytes.
var codecNames = compress.Names()

// parse reads buf's header, its dims landing in dims' backing array when it
// has the room.
func parse(buf []byte, dims []int) (parsed, error) {
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
	codec := rd.Bytes(int(rd.Uint32()))
	bits := rd.Uint32()
	if rd.Err() != nil || len(codec) == 0 || len(codec) > 64 {
		return p, ErrCorrupt
	}
	for _, name := range codecNames {
		if string(codec) == name {
			p.info.Codec = name
		}
	}
	if p.info.Codec == "" {
		return p, compress.CheckName(string(codec))
	}
	if bits != wire.ElemBits {
		return p, fmt.Errorf("container: unsupported element width %d", bits)
	}
	p.info.Dims, p.n = rd.Dims(dims)
	p.info.ErrorBound = rd.Float64()
	rows := rd.Uint32()
	if rd.Err() != nil || !(p.info.ErrorBound > 0) || math.IsInf(p.info.ErrorBound, 0) {
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
	p, err := parse(buf, nil)
	return p.info, err
}

// Unpack decompresses a float32 container.
func Unpack(buf []byte, opts Options) ([]float32, []int, error) {
	return NewUnpacker(opts).Unpack(buf)
}

// Unpacker unpacks many containers through one codec handle per codec — the
// read-side Packer: repeated calls (a restore decodes one container per
// rank×field, the daemon checks one per chunk frame) reuse all codec scratch
// instead of building a handle per call. An Unpacker is NOT safe for
// concurrent use — create one per goroutine.
type Unpacker struct {
	workers int
	// handles holds one handle for each codec seen, built on first use.
	handles map[string]compress.Handle
	// dims is Check's header dims scratch.
	dims []int
}

// NewUnpacker returns an Unpacker whose handles run opts.Parallelism
// workers.
func NewUnpacker(opts Options) *Unpacker {
	return &Unpacker{workers: opts.Parallelism, handles: make(map[string]compress.Handle)}
}

// open parses buf, its dims landing in dims' backing array when it has the
// room, checks that they claim no more elements than the stream could carry,
// and returns the handle of the container's codec.
func (u *Unpacker) open(buf []byte, dims []int) (parsed, compress.Handle, error) {
	p, err := parse(buf, dims)
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

// Unpack decompresses one float32 container straight into the output array,
// reusing the Unpacker's handle. A stream whose own dims are not the
// header's is corrupt (one claiming more lands in an array of the codec's
// own, never past the output).
func (u *Unpacker) Unpack(buf []byte) ([]float32, []int, error) {
	p, h, err := u.open(buf, nil)
	if err != nil {
		return nil, nil, err
	}
	out := make([]float32, p.n)
	vals, dims, err := h.DecompressInto(out, p.stream)
	if err != nil {
		return nil, nil, fmt.Errorf("container: decompression: %w", err)
	}
	if !slices.Equal(dims, p.info.Dims) || len(vals) != len(out) {
		return nil, nil, ErrCorrupt
	}
	return out, p.info.Dims, nil
}

// Check gives a float32 container the verdict Unpack would — every parse
// and decode error — plus what the set it belongs to promises, without
// materializing the array: in one parse the header must state codec and
// dims and a bound no looser than eb, and the codec's stream the header's
// dims. The promises are checked before anything is decoded, and the stream
// goes through the codec's Check, so a warm zfp call allocates nothing.
func (u *Unpacker) Check(buf []byte, codec string, dims []int, eb float64) error {
	p, h, err := u.open(buf, u.dims)
	if err != nil {
		return err
	}
	u.dims = p.info.Dims
	switch {
	case p.info.Codec != codec:
		return fmt.Errorf("%w: codec %s, want %s", ErrCorrupt, p.info.Codec, codec)
	case !slices.Equal(p.info.Dims, dims):
		return fmt.Errorf("%w: holds %v (%d elements), want %v", ErrCorrupt, p.info.Dims, p.n, dims)
	case !(p.info.ErrorBound <= eb):
		return fmt.Errorf("%w: error bound %g, want at most %g", ErrCorrupt, p.info.ErrorBound, eb)
	}
	got, err := h.Check(p.stream)
	if err != nil {
		return fmt.Errorf("container: decompression: %w", err)
	}
	if !slices.Equal(got, p.info.Dims) {
		return ErrCorrupt
	}
	return nil
}
