// Package squant implements uniform scalar quantization — the classic
// error-bounded baseline the SZ line of work measures itself against. Each
// value is independently quantized to round(x / 2eb), zigzag-varint
// encoded, and passed through the lossless stage. No prediction, no
// transform: the gap between squant's ratios and sz's quantifies what
// Lorenzo prediction buys, which is why it lives in the codec
// registry alongside the paper's two compressors.
package squant

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"lcpio/internal/lossless"
)

const (
	magic   = 0x53515543 // "SQUC"
	version = 1

	// maxQuantum bounds |q| so reconstruction stays finite; values beyond
	// it are stored verbatim.
	maxQuantum = 1 << 46
)

// ErrCorrupt is returned when decompressing malformed input.
var ErrCorrupt = errors.New("squant: corrupt stream")

// Float constrains the element types the codec accepts.
type Float interface {
	~float32 | ~float64
}

func elemKind[F Float]() uint32 {
	var z F
	if _, ok := any(z).(float32); ok {
		return 32
	}
	return 64
}

// Compress quantizes float32 data under absolute error bound eb.
func Compress(data []float32, dims []int, eb float64) ([]byte, error) {
	return compressGeneric(nil, data, dims, eb)
}

// Compress64 is Compress for float64 data.
func Compress64(data []float64, dims []int, eb float64) ([]byte, error) {
	return compressGeneric(nil, data, dims, eb)
}

// Decompress reverses Compress.
func Decompress(buf []byte) ([]float32, []int, error) {
	return decompressGeneric[float32](nil, buf)
}

// Decompress64 reverses Compress64.
func Decompress64(buf []byte) ([]float64, []int, error) {
	return decompressGeneric[float64](nil, buf)
}

// Handle is the codec as the registry holds it. It is the one-shot entry
// points under the handle method set: a flat quantizer has no scratch worth
// keeping between calls and no parallel path, so the zero value is ready and
// there is nothing to configure.
type Handle struct{}

// Name returns the codec's registry name.
func (Handle) Name() string { return "squant" }

func (Handle) Compress(data []float32, dims []int, eb float64) ([]byte, error) {
	return compressGeneric(nil, data, dims, eb)
}

// CompressAppend appends the stream to dst.
func (Handle) CompressAppend(dst []byte, data []float32, dims []int, eb float64) ([]byte, error) {
	return compressGeneric(dst, data, dims, eb)
}

func (Handle) Decompress(buf []byte) ([]float32, []int, error) {
	return decompressGeneric[float32](nil, buf)
}

// DecompressInto is Decompress landing in dst's backing array when it has
// the capacity for the stream's element count.
func (Handle) DecompressInto(dst []float32, buf []byte) ([]float32, []int, error) {
	return decompressGeneric(dst, buf)
}

func (Handle) Compress64(data []float64, dims []int, eb float64) ([]byte, error) {
	return compressGeneric(nil, data, dims, eb)
}

// CompressAppend64 is CompressAppend for float64 data.
func (Handle) CompressAppend64(dst []byte, data []float64, dims []int, eb float64) ([]byte, error) {
	return compressGeneric(dst, data, dims, eb)
}

func (Handle) Decompress64(buf []byte) ([]float64, []int, error) {
	return decompressGeneric[float64](nil, buf)
}

// DecompressInto64 is DecompressInto for float64 streams.
func (Handle) DecompressInto64(dst []float64, buf []byte) ([]float64, []int, error) {
	return decompressGeneric(dst, buf)
}

// compressGeneric appends the compressed stream to dst.
func compressGeneric[F Float](dst []byte, data []F, dims []int, eb float64) ([]byte, error) {
	if !(eb > 0) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("squant: invalid error bound %v", eb)
	}
	n := 1
	if len(dims) == 0 {
		return nil, errors.New("squant: empty dims")
	}
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("squant: non-positive dimension %d", d)
		}
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("squant: dims %v imply %d elements, data has %d", dims, n, len(data))
	}
	twoEB := 2 * eb

	payload := make([]byte, 0, n+64)
	payload = binary.LittleEndian.AppendUint32(payload, magic)
	payload = binary.LittleEndian.AppendUint32(payload, version)
	payload = binary.LittleEndian.AppendUint32(payload, elemKind[F]())
	payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(eb))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(dims)))
	for _, d := range dims {
		payload = binary.LittleEndian.AppendUint64(payload, uint64(d))
	}

	var exceptIdx []int
	var exceptVal []F
	quanta := make([]byte, 0, n*2)
	var prev int64
	for i, v := range data {
		f := float64(v)
		q := math.Floor(f/twoEB + 0.5)
		recon := q * twoEB
		if math.IsNaN(f) || math.IsInf(f, 0) || math.Abs(q) > maxQuantum ||
			math.Abs(float64(F(recon))-f) > eb {
			exceptIdx = append(exceptIdx, i)
			exceptVal = append(exceptVal, v)
			q = 0
		}
		// Delta against the previous quantum: smooth data produces tiny
		// deltas, which varint-code to a byte or two.
		qi := int64(q)
		quanta = binary.AppendVarint(quanta, qi-prev)
		prev = qi
	}
	payload = binary.LittleEndian.AppendUint64(payload, uint64(len(exceptIdx)))
	for i, idx := range exceptIdx {
		payload = binary.LittleEndian.AppendUint64(payload, uint64(idx))
		switch x := any(exceptVal[i]).(type) {
		case float32:
			payload = binary.LittleEndian.AppendUint32(payload, math.Float32bits(x))
		default:
			payload = binary.LittleEndian.AppendUint64(payload,
				math.Float64bits(any(exceptVal[i]).(float64)))
		}
	}
	payload = binary.LittleEndian.AppendUint64(payload, uint64(len(quanta)))
	payload = append(payload, quanta...)
	return lossless.AppendCompress(dst, payload, lossless.Defaults()), nil
}

func decompressGeneric[F Float](dst []F, buf []byte) ([]F, []int, error) {
	payload, err := lossless.Decompress(buf)
	if err != nil {
		return nil, nil, fmt.Errorf("squant: lossless stage: %w", err)
	}
	off := 0
	u32 := func() uint32 {
		if off+4 > len(payload) {
			off = len(payload) + 1
			return 0
		}
		v := binary.LittleEndian.Uint32(payload[off:])
		off += 4
		return v
	}
	u64 := func() uint64 {
		if off+8 > len(payload) {
			off = len(payload) + 1
			return 0
		}
		v := binary.LittleEndian.Uint64(payload[off:])
		off += 8
		return v
	}
	if u32() != magic {
		return nil, nil, ErrCorrupt
	}
	if v := u32(); v != version {
		return nil, nil, fmt.Errorf("squant: unsupported version %d", v)
	}
	if kind := u32(); kind != elemKind[F]() {
		return nil, nil, fmt.Errorf("squant: stream holds float%d values, caller asked for float%d",
			kind, elemKind[F]())
	}
	eb := math.Float64frombits(u64())
	ndims := int(u32())
	if off > len(payload) || ndims <= 0 || ndims > 8 || !(eb > 0) {
		return nil, nil, ErrCorrupt
	}
	dims := make([]int, ndims)
	n := 1
	for i := range dims {
		d := u64()
		if d == 0 || d > 1<<40 {
			return nil, nil, ErrCorrupt
		}
		dims[i] = int(d)
		n *= int(d)
		if n <= 0 || n > 1<<34 {
			return nil, nil, ErrCorrupt
		}
	}
	numExc := int(u64())
	if off > len(payload) || numExc < 0 || numExc > n {
		return nil, nil, ErrCorrupt
	}
	excIdx := make([]int, numExc)
	excVal := make([]F, numExc)
	var zero F
	_, is32 := any(zero).(float32)
	for i := range excIdx {
		idx := int(u64())
		if idx < 0 || idx >= n {
			return nil, nil, ErrCorrupt
		}
		excIdx[i] = idx
		if is32 {
			excVal[i] = F(math.Float32frombits(u32()))
		} else {
			excVal[i] = F(math.Float64frombits(u64()))
		}
	}
	qLen := int(u64())
	if off > len(payload) || qLen < 0 || off+qLen > len(payload) {
		return nil, nil, ErrCorrupt
	}
	quanta := payload[off : off+qLen]

	out := dst
	if cap(out) >= n {
		out = out[:n]
	} else {
		out = make([]F, n)
	}
	twoEB := 2 * eb
	var prev int64
	pos := 0
	for i := 0; i < n; i++ {
		d, sz := binary.Varint(quanta[pos:])
		if sz <= 0 {
			return nil, nil, ErrCorrupt
		}
		pos += sz
		prev += d
		out[i] = F(float64(prev) * twoEB)
	}
	for i, idx := range excIdx {
		out[idx] = excVal[i]
	}
	return out, dims, nil
}
