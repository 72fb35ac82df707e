package zfp

import (
	"bytes"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"testing"

	"lcpio/internal/bitstream"
	"lcpio/internal/fpdata"
	"lcpio/internal/obs"
	"lcpio/internal/wire"
)

// refEncodeBlockFixedStep is encodeBlock as it stood before the cutoff
// search, kept as the reference the search is held to: it seeds every
// block's cutoff one guard plane below the tolerance's plane and, on a
// failed verification, drops three planes at a time.
func refEncodeBlockFixedStep(w *bitstream.Writer, ln *zlane, dim int, co cutoff) {
	size := blockSize(dim)
	blk := ln.blk[:size]

	peak, finite := maxAbs(blk)
	if !finite {
		writeRawBlock(w, blk)
		return
	}
	if peak == 0 {
		w.WriteBits(tagZero, 2)
		return
	}
	_, emax := math.Frexp(peak)

	coef, nb := &ln.coef, &ln.nb
	scale, inv := math.Ldexp(1, qBits-emax), math.Ldexp(1, emax-qBits)
	for i, v := range blk {
		coef[i&63] = int64(math.RoundToEven(float64(v) * scale))
	}
	fwdTransform(coef[:size], dim)
	var all uint64
	for i, p := range permFor(dim) {
		v := int2nb(coef[p&63])
		nb[i&63] = v
		all |= v
	}
	kmaxFull := bits.Len64(all)
	if kmaxFull > hiPlane {
		kmaxFull = hiPlane
	}

	const guard = 1
	kmin := co.ebLog2 + qBits - emax - guard
	if kmin < 0 {
		kmin = 0
	}
	if kmin >= hiPlane {
		kmin = hiPlane - 1
	}

	for {
		kmax := kmaxFull
		if kmax < kmin {
			kmax = kmin
		}
		ln.verifies++
		if _, ok := verifyCutoff(ln, dim, co.eb, inv, kmin, kmax); ok {
			w.WriteBits(tagCoded, 2)
			w.WriteBits(uint64(emax+emaxBias), emaxFieldBits)
			w.WriteBits(uint64(kmin), 6)
			w.WriteBits(uint64(kmax), 6)
			encodePlanes(w, nb[:size], kmin, kmax)
			ln.planes += int64(kmax - kmin)
			return
		}
		if kmin == 0 {
			writeRawBlock(w, blk)
			return
		}
		kmin -= 3
		if kmin < 0 {
			kmin = 0
		}
	}
}

// refCompressFixedStep is compressInto on one goroutine with the fixed-step
// cutoff rule, and the verifications that rule ran.
func refCompressFixedStep(data []float32, dims []int, eb float64) ([]byte, int64) {
	dim, d0, d1, d2 := wire.Collapse(dims)
	nb0, nb1, nb2 := blockGrid(d0, d1, d2, dim)
	total := nb0 * nb1 * nb2
	sb, numShards := shardPlan(total)
	co := cutoffFor(eb)
	ln := &zlane{}
	out := appendHeader(nil, dims, eb)
	out = wire.AppendUint32(out, uint32(numShards))
	out = wire.AppendUint32(out, uint32(sb))
	var payload []byte
	for s := 0; s < numShards; s++ {
		ln.w.Reset()
		for idx := s * sb; idx < min((s+1)*sb, total); idx++ {
			bi, bj, bk := blockCoords(idx, nb1, nb2)
			gatherBlock(data, d0, d1, d2, dim, bi, bj, bk, ln.blk[:])
			refEncodeBlockFixedStep(&ln.w, ln, dim, co)
		}
		out = wire.AppendUint64(out, uint64(len(ln.w.Bytes())))
		payload = append(payload, ln.w.Bytes()...)
	}
	return append(out, payload...), ln.verifies
}

// TestFixedStepReferenceWritesPreSearchGoldens: the reference rule writes
// the committed pre-search goldens byte for byte, so it is the rule the
// encoder had. Those streams carry the fixed 4096-block shards of their
// time, which the plan is pinned to here.
func TestFixedStepReferenceWritesPreSearchGoldens(t *testing.T) {
	saved := shardMinBlocks
	shardMinBlocks = shardTargetBlocks
	defer func() { shardMinBlocks = saved }()
	for _, tc := range goldenCases {
		want, err := os.ReadFile(filepath.Join("testdata", tc.preSearchFile()))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := refCompressFixedStep(goldenField32(tc.dims), tc.dims, tc.eb); !bytes.Equal(got, want) {
			t.Fatalf("%s: the fixed-step reference writes other bytes", tc.preSearchFile())
		}
	}
}

// searchFields are the four datasets' fields at up to 2^16 elements, seed 1,
// each with its range, the scale of a relative bound.
func searchFields(t *testing.T, elems int) []*fpdata.Field {
	t.Helper()
	var out []*fpdata.Field
	for _, df := range [][2]string{{"NYX", "velocity_x"}, {"HACC", "vx"}, {"CESM-ATM", "CLDHGH"}, {"Hurricane-ISABEL", "PRECIP"}} {
		spec, err := fpdata.Lookup(df[0], df[1])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fpdata.Generate(spec, spec.ScaleFor(elems), 1))
	}
	return out
}

func fieldRange(f *fpdata.Field) float64 {
	lo, hi := f.Range()
	return float64(hi) - float64(lo)
}

// compressCounted compresses at one worker and returns the stream with
// lcpio_zfp_verify_total / lcpio_zfp_blocks_total of the call.
func compressCounted(t *testing.T, data []float32, dims []int, eb float64) ([]byte, float64) {
	t.Helper()
	reg := obs.NewRegistry()
	prev := obs.Use(reg)
	defer obs.Use(prev)
	stream, err := NewHandle(1).Compress(data, dims, eb)
	if err != nil {
		t.Fatal(err)
	}
	blocks, _ := reg.CounterValue("lcpio_zfp_blocks_total")
	verifies, _ := reg.CounterValue("lcpio_zfp_verify_total")
	return stream, verifies / blocks
}

// TestCutoffSearchNoWorseThanFixedStep: on every dataset at three relative
// bounds the search stores no more bytes than the fixed-step rule it
// replaced, every element decodes within the bound, and on NYX at 1e-3 —
// the zfp-wirez workload's field and bound — it runs fewer verifications
// per block than that rule's two (1.69 against 1.99 when written).
func TestCutoffSearchNoWorseThanFixedStep(t *testing.T) {
	for _, f := range searchFields(t, 1<<16) {
		for _, rel := range []float64{1e-2, 1e-3, 1e-4} {
			eb := rel * fieldRange(f)
			got, perBlock := compressCounted(t, f.Data, f.Dims, eb)
			ref, refVerifies := refCompressFixedStep(f.Data, f.Dims, eb)
			if len(got) > len(ref) {
				t.Errorf("%s %g: search %d bytes, fixed step %d", f.Spec.Dataset, rel, len(got), len(ref))
			}
			out, _, err := NewHandle(1).Decompress(got)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if !(math.Abs(float64(v)-float64(f.Data[i])) <= eb) {
					t.Fatalf("%s %g: element %d decodes %g, want %g within %g", f.Spec.Dataset, rel, i, v, f.Data[i], eb)
				}
			}
			if f.Spec.Dataset == "NYX" && rel == 1e-3 {
				dim, d0, d1, d2 := wire.Collapse(f.Dims)
				nb0, nb1, nb2 := blockGrid(d0, d1, d2, dim)
				refPerBlock := float64(refVerifies) / float64(nb0*nb1*nb2)
				if perBlock > 1.75 || perBlock >= refPerBlock {
					t.Errorf("NYX 1e-3: %.3f verifications per block (fixed step %.3f); want at most 1.75 and fewer",
						perBlock, refPerBlock)
				}
				t.Logf("NYX 1e-3: %d -> %d bytes, %.3f -> %.3f verifications per block",
					len(ref), len(got), refPerBlock, perBlock)
			}
		}
	}
}

// TestCutoffSearchBytesIndependentOfWorkers: with shards of at most four
// blocks, each lane starts the search afresh many times and picks shards up
// in an order that depends on the worker count; the bytes must not.
func TestCutoffSearchBytesIndependentOfWorkers(t *testing.T) {
	smallShards(t, 4)
	for _, f := range searchFields(t, 1<<14) {
		dim, d0, d1, d2 := wire.Collapse(f.Dims)
		nb0, nb1, nb2 := blockGrid(d0, d1, d2, dim)
		if _, shards := shardPlan(nb0 * nb1 * nb2); shards < 32 {
			t.Fatalf("%s: %d shards; want many per lane", f.Spec.Dataset, shards)
		}
		eb := 1e-3 * fieldRange(f)
		want, err := NewHandle(1).Compress(f.Data, f.Dims, eb)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			if got, err := NewHandle(workers).Compress(f.Data, f.Dims, eb); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s workers=%d: err %v, or the bytes differ from one worker's", f.Spec.Dataset, workers, err)
			}
		}
	}
}
