package lossless

import (
	"lcpio/internal/bitstream"
	"lcpio/internal/huffman"
)

// code is a thin adapter over huffman.Code keeping call sites in the token
// encoder terse.
type code struct {
	h *huffman.Code
}

// mustBuildWith builds a code through a reusable Builder; the result is only
// valid until the Builder's next Build call.
func mustBuildWith(b *huffman.Builder, freqs []uint64) code {
	h, err := b.Build(freqs)
	if err != nil {
		// Callers guarantee at least one nonzero frequency (EOB is always
		// counted), so a failure here is a programming error.
		panic("lossless: " + err.Error())
	}
	return code{h: h}
}

func (c *code) encode(w *bitstream.Writer, s int) { c.h.Encode(w, s) }
func (c *code) writeTable(w *bitstream.Writer)    { c.h.WriteTable(w) }
