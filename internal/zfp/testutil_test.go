package zfp

import (
	"math/bits"

	"lcpio/internal/bitstream"
	"lcpio/internal/wire"
)

func newTestWriter() *bitstream.Writer { return bitstream.NewWriter(1024) }

func newTestReader(w *bitstream.Writer) *bitstream.Reader {
	return bitstream.NewReader(w.Bytes())
}

// rank is the block dimensionality the codec gives dims.
func rank(dims []int) int {
	r, _, _, _ := wire.Collapse(dims)
	return r
}

func bitsLen(v uint64) int { return bits.Len64(v) }

// hiPlane32 mirrors the float32 traits for tests.
var hiPlane32 = traitsFor[float32]().hi
