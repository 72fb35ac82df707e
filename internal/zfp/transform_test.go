package zfp

import (
	"math"
	"math/rand"
	"testing"

	"lcpio/internal/wire"
)

func TestTransformRoundTripBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for dim := 1; dim <= 3; dim++ {
		size := blockSize(dim)
		for trial := 0; trial < 500; trial++ {
			c := make([]int64, size)
			want := make([]int64, size)
			for i := range c {
				c[i] = int64(rng.Intn(1<<20) - 1<<19)
				want[i] = c[i]
			}
			fwdTransform(c, dim)
			invTransform(c, dim)
			// Each lift pass loses at most a few low bits; across dim
			// passes the drift stays tiny relative to the magnitude.
			for i := range c {
				d := c[i] - want[i]
				if d < -32 || d > 32 {
					t.Fatalf("dim %d: round-off %d at %d", dim, d, i)
				}
			}
		}
	}
}

func TestTransformCompactsSmoothBlocks(t *testing.T) {
	// On a linear ramp the transform concentrates magnitude into the
	// low-sequency coefficients: the energy-compaction property the
	// embedded coder exploits.
	c := make([]int64, 64)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 4; k++ {
				c[(i*4+j)*4+k] = int64(1000 * (i + j + k))
			}
		}
	}
	fwdTransform(c, 3)
	perm := permFor(3)
	var lowEnergy, highEnergy float64
	for rank, p := range perm {
		v := math.Abs(float64(c[p]))
		if rank < 8 {
			lowEnergy += v
		} else if rank >= 32 {
			highEnergy += v
		}
	}
	if lowEnergy <= 10*highEnergy {
		t.Fatalf("no energy compaction: low %g vs high %g", lowEnergy, highEnergy)
	}
}

func TestTransformConstantBlock(t *testing.T) {
	// A constant block transforms to a single DC coefficient.
	c := make([]int64, 64)
	for i := range c {
		c[i] = 4096
	}
	fwdTransform(c, 3)
	nonzero := 0
	for _, v := range c {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero != 1 {
		t.Fatalf("constant block has %d nonzero coefficients", nonzero)
	}
	if c[0] != 4096 {
		t.Fatalf("DC coefficient %d", c[0])
	}
}

func TestGatherScatterPartialBlocks(t *testing.T) {
	// A 5-wide 1-D array: the second block replicates the edge sample on
	// gather, and scatter writes back only in-bounds values.
	data := []float32{1, 2, 3, 4, 5}
	blk := make([]float32, 4)
	gatherBlock(data, 1, 1, 5, 1, 0, 0, 1, blk)
	want := []float32{5, 5, 5, 5}
	for i := range want {
		if blk[i] != want[i] {
			t.Fatalf("gather: %v, want %v", blk, want)
		}
	}
	out := make([]float32, 5)
	scatterBlock(out, 1, 1, 5, 1, 0, 0, 1, []float32{9, 8, 7, 6})
	if out[4] != 9 || out[3] != 0 {
		t.Fatalf("scatter wrote out of bounds: %v", out)
	}
}

func TestShapeFoldsExtraDims(t *testing.T) {
	_, d0, d1, d2 := wire.Collapse([]int{2, 3, 4, 5})
	if d0 != 6 || d1 != 4 || d2 != 5 {
		t.Fatalf("shape: %d %d %d", d0, d1, d2)
	}
	_, d0, d1, d2 = wire.Collapse([]int{1, 1, 1})
	if d0 != 1 || d1 != 1 || d2 != 1 {
		t.Fatalf("all-singleton shape: %d %d %d", d0, d1, d2)
	}
}

// TestTraits: the top plane sits above the fixed-point scale, with room for
// the transform gain, and inside both a uint64 and the 6-bit kmin/kmax
// fields of a block header.
func TestTraits(t *testing.T) {
	if hiPlane <= qBits || hiPlane > 63 {
		t.Fatalf("hiPlane %d, qBits %d", hiPlane, qBits)
	}
}
