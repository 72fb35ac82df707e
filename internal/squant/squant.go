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
	"lcpio/internal/wire"
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
type Float = wire.Float

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
	if err := wire.CheckDims("squant", len(data), dims); err != nil {
		return nil, err
	}
	n := len(data)
	twoEB := 2 * eb

	payload := make([]byte, 0, n+64)
	payload = wire.AppendUint32(payload, magic)
	payload = wire.AppendUint32(payload, version)
	payload = wire.AppendUint32(payload, wire.ElemBits[F]())
	payload = wire.AppendFloat64(payload, eb)
	payload = wire.AppendDims(payload, dims)

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
	payload = wire.AppendUint64(payload, uint64(len(exceptIdx)))
	for i, idx := range exceptIdx {
		payload = wire.AppendUint64(payload, uint64(idx))
		payload = wire.AppendValue(payload, exceptVal[i])
	}
	payload = wire.AppendUint64(payload, uint64(len(quanta)))
	payload = append(payload, quanta...)
	return lossless.AppendCompress(dst, payload, lossless.Defaults()), nil
}

func decompressGeneric[F Float](dst []F, buf []byte) ([]F, []int, error) {
	payload, err := lossless.Decompress(buf)
	if err != nil {
		return nil, nil, fmt.Errorf("squant: lossless stage: %w", err)
	}
	rd := wire.NewReader(payload, ErrCorrupt)
	if rd.Uint32() != magic {
		return nil, nil, ErrCorrupt
	}
	if v := rd.Uint32(); v != version {
		return nil, nil, fmt.Errorf("squant: unsupported version %d", v)
	}
	if kind := rd.Uint32(); kind != wire.ElemBits[F]() {
		return nil, nil, fmt.Errorf("squant: stream holds float%d values, caller asked for float%d",
			kind, wire.ElemBits[F]())
	}
	eb := rd.Float64()
	dims, n := rd.Dims()
	numExc := rd.Uint64()
	// Plausibility: an exception costs an index and a value, so a count the
	// bytes left cannot hold is corrupt, and must not size the two tables.
	excLen := uint64(8 + wire.ElemBits[F]()/8)
	if rd.Err() != nil || !(eb > 0) || numExc > uint64(n) || numExc > uint64(rd.Remaining())/excLen {
		return nil, nil, ErrCorrupt
	}
	excIdx := make([]int, numExc)
	excVal := make([]F, numExc)
	for i := range excIdx {
		idx := rd.Uint64()
		if idx >= uint64(n) {
			return nil, nil, ErrCorrupt
		}
		excIdx[i] = int(idx)
		excVal[i] = wire.ReadValue[F](&rd)
	}
	// A varint is at least one byte per element: fewer bytes than elements
	// is corrupt, and must not size the output.
	qLen := rd.Uint64()
	if rd.Err() != nil || qLen > uint64(rd.Remaining()) || qLen < uint64(n) {
		return nil, nil, ErrCorrupt
	}
	quanta := rd.Bytes(int(qLen))

	out := wire.Sized(dst, n)
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
