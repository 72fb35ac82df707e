package sz

import (
	"encoding/binary"
	"fmt"
	"math"

	"lcpio/internal/lossless"
	"lcpio/internal/wire"
)

// Pointwise-relative error bound mode (Di et al., the paper's reference
// [4]): every reconstructed value satisfies |x' - x| <= rel * |x|. As in
// SZ's implementation, the array is transformed into log space — where a
// pointwise-relative bound becomes a uniform absolute bound — compressed
// with the standard pipeline, and exponentiated back:
//
//	L_i = ln|x_i|    compressed with abs bound ln(1+rel)/2 (symmetric guard)
//
// Signs travel as a bitmap; zeros and non-finite values, which have no
// logarithm, go to an exact-value sidecar.

const (
	pwMagic   = 0x535A5057 // "SZPW"
	pwVersion = 1
)

// CompressPWRel compresses float32 data under the pointwise relative bound
// rel (0 < rel < 1), e.g. 1e-3 keeps every value within 0.1% of itself.
func CompressPWRel(data []float32, dims []int, rel float64) ([]byte, error) {
	if !(rel > 0) || rel >= 1 || math.IsNaN(rel) {
		return nil, fmt.Errorf("sz: pointwise relative bound %v outside (0,1)", rel)
	}
	if err := wire.CheckDims("sz", len(data), dims); err != nil {
		return nil, err
	}

	// In log space a symmetric absolute bound of min(ln(1+rel), -ln(1-rel))/1
	// guarantees the relative bound on both sides; ln(1-rel) is the tighter
	// of the two, so use it with a small safety factor for the float
	// round-trip of the exp.
	logEB := -math.Log1p(-rel) * 0.999
	if math.Log1p(rel) < logEB {
		logEB = math.Log1p(rel) * 0.999
	}

	n := len(data)
	logs := make([]float64, n)
	signs := make([]bool, n)
	specialIdx := make([]int, 0)
	specialVal := make([]float32, 0)
	for i, v := range data {
		f := float64(v)
		a := math.Abs(f)
		if a == 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			specialIdx = append(specialIdx, i)
			specialVal = append(specialVal, v)
			logs[i] = 0 // placeholder; overwritten on decode
			continue
		}
		signs[i] = f < 0
		logs[i] = math.Log(a)
	}

	inner, err := Compress64(logs, dims, logEB)
	if err != nil {
		return nil, err
	}

	// Verify: exponentiation and the final cast to F add rounding beyond
	// the log-domain bound argument; any violating element moves to the
	// exact sidecar so the guarantee is unconditional.
	decLogs, _, err := Decompress64(inner)
	if err != nil {
		return nil, err
	}
	special := make(map[int]bool, len(specialIdx))
	for _, idx := range specialIdx {
		special[idx] = true
	}
	for i, l := range decLogs {
		if special[i] {
			continue
		}
		v := math.Exp(l)
		if signs[i] {
			v = -v
		}
		orig := float64(data[i])
		if math.Abs(float64(float32(v))-orig) > rel*math.Abs(orig) {
			specialIdx = append(specialIdx, i)
			specialVal = append(specialVal, data[i])
		}
	}

	// Container: header + sign bitmap + special sidecar + inner stream,
	// all behind the lossless coder (the bitmap compresses well).
	out := make([]byte, 0, len(inner)+n/8+64)
	out = binary.LittleEndian.AppendUint32(out, pwMagic)
	out = binary.LittleEndian.AppendUint32(out, pwVersion)
	out = binary.LittleEndian.AppendUint32(out, 32) // element kind: float32 only
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(rel))
	out = binary.LittleEndian.AppendUint64(out, uint64(n))
	out = append(out, packBools(signs)...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(specialIdx)))
	for i, idx := range specialIdx {
		out = binary.LittleEndian.AppendUint64(out, uint64(idx))
		out = wire.AppendValue(out, specialVal[i])
	}
	out = binary.LittleEndian.AppendUint64(out, uint64(len(inner)))
	out = append(out, inner...)
	return lossless.Compress(out, lossless.Defaults()), nil
}

// DecompressPWRel reverses CompressPWRel.
func DecompressPWRel(buf []byte) ([]float32, []int, error) {
	raw, err := lossless.Decompress(buf)
	if err != nil {
		return nil, nil, fmt.Errorf("sz: pwrel lossless stage: %w", err)
	}
	rd := wire.NewReader(raw, ErrCorrupt)
	if rd.Uint32() != pwMagic {
		return nil, nil, ErrCorrupt
	}
	if v := rd.Uint32(); v != pwVersion {
		if rd.Err() != nil {
			return nil, nil, ErrCorrupt
		}
		return nil, nil, fmt.Errorf("sz: unsupported pwrel version %d", v)
	}
	if kind := rd.Uint32(); kind != 32 {
		if rd.Err() != nil {
			return nil, nil, ErrCorrupt
		}
		return nil, nil, fmt.Errorf("sz: pwrel stream holds float%d values, only float32 is supported", kind)
	}
	rel := rd.Float64()
	n := int(rd.Uint64())
	if rd.Err() != nil || !(rel > 0) || rel >= 1 || n < 0 || n > wire.MaxElems {
		return nil, nil, ErrCorrupt
	}
	signBytes := rd.Bytes((n + 7) / 8)
	if rd.Err() != nil {
		return nil, nil, ErrCorrupt
	}
	signs := unpackBools(signBytes, n)
	numSpecial := int(rd.Uint64())
	if rd.Err() != nil || numSpecial < 0 || numSpecial > n {
		return nil, nil, ErrCorrupt
	}
	specialIdx := make([]int, numSpecial)
	specialVal := make([]float32, numSpecial)
	for i := range specialIdx {
		idx := int(rd.Uint64())
		if idx < 0 || idx >= n {
			return nil, nil, ErrCorrupt
		}
		specialIdx[i] = idx
		specialVal[i] = rd.Float32()
	}
	innerLen := int(rd.Uint64())
	if rd.Err() != nil || innerLen < 0 || innerLen > rd.Remaining() {
		return nil, nil, ErrCorrupt
	}
	inner := rd.Bytes(innerLen)
	if rd.Err() != nil {
		return nil, nil, ErrCorrupt
	}

	logs, dims, err := Decompress64(inner)
	if err != nil {
		return nil, nil, err
	}
	if len(logs) != n {
		return nil, nil, ErrCorrupt
	}
	out := make([]float32, n)
	for i, l := range logs {
		v := math.Exp(l)
		if signs[i] {
			v = -v
		}
		out[i] = float32(v)
	}
	for i, idx := range specialIdx {
		out[idx] = specialVal[i]
	}
	return out, dims, nil
}

// packBools packs a bool slice LSB-first into bytes.
func packBools(bs []bool) []byte {
	out := make([]byte, (len(bs)+7)/8)
	for i, b := range bs {
		if b {
			out[i/8] |= 1 << uint(i%8)
		}
	}
	return out
}

// unpackBools reverses packBools.
func unpackBools(raw []byte, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = raw[i/8]&(1<<uint(i%8)) != 0
	}
	return out
}
