package sz

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"lcpio/internal/bitstream"
	"lcpio/internal/huffman"
	"lcpio/internal/lossless"
	"lcpio/internal/wire"
)

// The element-at-a-time reference the fused kernels in predict.go replaced:
// one prediction, one quantization, one border switch per element.

// quantizeOne maps a value to a quantization code given its prediction.
// Codes are centered at radius; code 0 is reserved for unpredictable values.
// ok is false when the value cannot be represented within the error bound,
// in which case the caller stores it verbatim. Both guards are written as
// accept-conditions so NaN (from non-finite input values, or predictions
// contaminated by verbatim-stored non-finite neighbors) fails them and falls
// through to the unpredictable path instead of producing a garbage code.
func quantizeOne(val float32, pred, twoEB, eb float64, radius int) (code int, recon float32, ok bool) {
	diff := float64(val) - pred
	qf := math.Floor(diff/twoEB + 0.5)
	if !(qf > float64(-radius) && qf < float64(radius)) {
		return 0, 0, false
	}
	q := int(qf)
	r := pred + float64(q)*twoEB
	rf := float32(r)
	if !(math.Abs(float64(rf)-float64(val)) <= eb) {
		// Catches reconstruction error > eb, and rf being NaN/Inf (the
		// comparison is then false), in one test.
		return 0, 0, false
	}
	return q + radius, rf, true
}

// dequantOne reconstructs a value from its code and prediction.
func dequantOne(code int, pred, twoEB float64, radius int) float32 {
	return float32(pred + float64(code-radius)*twoEB)
}

// pred2D computes the first-order 2-D Lorenzo prediction
// f(i,j) ~ f(i,j-1) + f(i-1,j) - f(i-1,j-1), degrading gracefully at the
// array borders. The fused kernels in predict.go hoist this boundary switch
// out of the inner loop; pred2D is the element-at-a-time reference
// TestFusedKernelsMatchReference holds them to.
func pred2D(recon []float32, i, j, d2 int) float64 {
	switch {
	case i > 0 && j > 0:
		return float64(recon[i*d2+j-1]) + float64(recon[(i-1)*d2+j]) - float64(recon[(i-1)*d2+j-1])
	case j > 0:
		return float64(recon[i*d2+j-1])
	case i > 0:
		return float64(recon[(i-1)*d2+j])
	default:
		return 0
	}
}

// pred3D computes the first-order 3-D Lorenzo prediction: the inclusion–
// exclusion sum over the 7 previously-seen corners of the unit cube at
// (i,j,k), degrading to 2-D/1-D stencils on the boundary faces and edges.
// Reference path; see pred2D's note.
func pred3D(recon []float32, i, j, k, d1, d2 int) float64 {
	at := func(ii, jj, kk int) float64 {
		return float64(recon[(ii*d1+jj)*d2+kk])
	}
	switch {
	case i > 0 && j > 0 && k > 0:
		return at(i, j, k-1) + at(i, j-1, k) + at(i-1, j, k) -
			at(i, j-1, k-1) - at(i-1, j, k-1) - at(i-1, j-1, k) +
			at(i-1, j-1, k-1)
	case j > 0 && k > 0:
		return at(i, j, k-1) + at(i, j-1, k) - at(i, j-1, k-1)
	case i > 0 && k > 0:
		return at(i, j, k-1) + at(i-1, j, k) - at(i-1, j, k-1)
	case i > 0 && j > 0:
		return at(i, j-1, k) + at(i-1, j, k) - at(i-1, j-1, k)
	case k > 0:
		return at(i, j, k-1)
	case j > 0:
		return at(i, j-1, k)
	case i > 0:
		return at(i-1, j, k)
	default:
		return 0
	}
}

// refQuantize quantizes a d0 x d1 x d2 array (d0 = 1 for 2-D, d0 = d1 = 1 for
// 1-D) one element at a time through pred3D and quantizeOne.
func refQuantize(data []float32, d0, d1, d2 int, eb float64) (codes []int, recon, exact []float32) {
	codes = make([]int, len(data))
	recon = make([]float32, len(data))
	for i := 0; i < d0; i++ {
		for j := 0; j < d1; j++ {
			for k := 0; k < d2; k++ {
				idx := (i*d1+j)*d2 + k
				c, r, ok := quantizeOne(data[idx], pred3D(recon, i, j, k, d1, d2), 2*eb, eb, radius)
				if !ok {
					c, r = 0, data[idx]
					exact = append(exact, data[idx])
				}
				codes[idx], recon[idx] = c, r
			}
		}
	}
	return codes, recon, exact
}

// sameBits reports whether a and b hold the same values bit for bit, so a
// NaN matches itself and +0 does not match -0.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return false
		}
	}
	return true
}

// fusedMatchesReference runs the fused kernel for the shape over data and
// holds it to the element-at-a-time reference: the same codes, the same
// reconstruction, the same verbatim values in raster order; and the
// reconstruct pass of the two-pass reference and the one-pass decode kernel,
// fed the codes as a Huffman stream, both invert them. It holds the paired
// kernels to the reference too, with data on either side of a pass beside a
// different field. It returns the codes for callers that know what they
// should be.
func fusedMatchesReference(t *testing.T, data []float32, d0, d1, d2 int, eb float64) []int {
	t.Helper()
	wantCodes, wantRecon, wantExact := refQuantize(data, d0, d1, d2, eb)

	codes := make([]int, len(data))
	recon := make([]float32, len(data))
	var exact []float32
	quantize3D(data, recon, codes, &exact, d0, d1, d2, 2*eb, eb)
	ref := [2]quantBufs{{wantCodes, wantRecon, wantExact}}
	sameAsReference(t, fmt.Sprintf("%dx%dx%d", d0, d1, d2), quantBufs{codes, recon, exact}, ref[0])

	fields := [2][]float32{data, pairedField(data, eb)}
	ref[1].codes, ref[1].recon, ref[1].exact = refQuantize(fields[1], d0, d1, d2, eb)
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		var got [2]quantBufs
		got[0].sized(len(data))
		got[1].sized(len(data))
		quantize3Dx2(fields[order[0]], fields[order[1]], got[0].recon, got[1].recon,
			got[0].codes, got[1].codes, &got[0].exact, &got[1].exact, d0, d1, d2, 2*eb, eb)
		for k, f := range order {
			sameAsReference(t, fmt.Sprintf("%dx%dx%d paired: field %d on side %d", d0, d1, d2, f, k), got[k], ref[f])
		}

		// The paired decode kernel, fed each side's codes through its own
		// Huffman stream, rebuilds both.
		da, db := symbolDecoder(t, got[0].codes), symbolDecoder(t, got[1].codes)
		out := [2][]float32{make([]float32, len(data)), make([]float32, len(data))}
		ua, ub, errA, errB := decode3Dx2(out[0], out[1], &da, &db, got[0].exact, got[1].exact, d0, d1, d2, 2*eb)
		for k, side := range []struct {
			used int
			err  error
		}{{ua, errA}, {ub, errB}} {
			want := ref[order[k]]
			if side.err != nil || side.used != len(want.exact) || !sameBits(out[k], want.recon) {
				t.Fatalf("%dx%dx%d paired decode: field %d on side %d: err %v, %d/%d verbatim values used, identical %v",
					d0, d1, d2, order[k], k, side.err, side.used, len(want.exact), sameBits(out[k], want.recon))
			}
		}
	}

	next := 0
	nextExact := func() (float32, error) { next++; return exact[next-1], nil }
	back := make([]float32, len(data))
	var err error
	switch {
	case d0 == 1 && d1 == 1:
		err = reconstruct1D(back, codes, nextExact, 2*eb)
	case d0 == 1:
		err = reconstruct2D(back, codes, nextExact, d1, d2, 2*eb)
	default:
		err = reconstruct3D(back, codes, nextExact, d0, d1, d2, 2*eb)
	}
	if err != nil || next != len(exact) || !sameBits(back, recon) {
		t.Fatalf("%dx%dx%d: reconstruct err %v, %d/%d verbatim values used, identical %v",
			d0, d1, d2, err, next, len(exact), sameBits(back, recon))
	}

	// The one-pass decode kernel, fed the codes through a Huffman stream,
	// lands on the same bits.
	dec := symbolDecoder(t, codes)
	fused := make([]float32, len(data))
	used, err := decode3D(fused, &dec, exact, d0, d1, d2, 2*eb)
	if err != nil || used != len(exact) || !sameBits(fused, recon) {
		t.Fatalf("%dx%dx%d: decode kernel err %v, %d/%d verbatim values used, identical %v",
			d0, d1, d2, err, used, len(exact), sameBits(fused, recon))
	}

	return codes
}

// symbolDecoder returns a decoder over codes Huffman-coded under their own
// histogram, as a partition codes its symbols.
func symbolDecoder(t *testing.T, codes []int) huffman.Decoder {
	t.Helper()
	code, err := huffman.Build(huffman.Histogram(codes, quantCount))
	if err != nil {
		t.Fatal(err)
	}
	w := bitstream.NewWriter(0)
	code.EncodeAll(w, codes)
	return code.NewDecoder(bitstream.NewReader(w.Bytes()))
}

// sameAsReference fails the test unless a kernel's codes, reconstruction
// bits and verbatim values are the reference's.
func sameAsReference(t *testing.T, what string, got, want quantBufs) {
	t.Helper()
	for i := range got.codes {
		if got.codes[i] != want.codes[i] {
			t.Fatalf("%s: code %d = %d, reference %d", what, i, got.codes[i], want.codes[i])
		}
	}
	if !sameBits(got.recon, want.recon) || !sameBits(got.exact, want.exact) {
		t.Fatalf("%s: fused reconstruction or verbatim values differ from the reference", what)
	}
}

// pairedField is data's partner in a paired pass: a different field (data
// reversed), with the quantizer's edge quotients planted every seventh
// element and NaN, +Inf and -Inf at its quarter points, so the two sides
// leave the fast path at different elements and store verbatim lists of
// different lengths.
func pairedField(data []float32, eb float64) []float32 {
	n := len(data)
	edges := quantizerEdges(5 * n)
	out := make([]float32, n)
	for i := range out {
		out[i] = data[n-1-i]
		if i%7 == 3 {
			out[i] = float32(float64(edges[5*(i/7)+2]) * 2 * eb)
		}
	}
	for k, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		out[(k+1)*n/4] = float32(v)
	}
	return out
}

var fusedShapes = [][3]int{{1, 1, 257}, {1, 19, 23}, {1, 2, 1}, {5, 7, 11}, {2, 1, 9}, {3, 4, 1}}

// TestFusedKernelsMatchReference: on noisy fields with spikes and non-finite
// values, and on fields whose stencil terms cancel across eleven orders of
// magnitude, every fused kernel emits exactly the reference's codes,
// reconstruction and verbatim values, and both the two-pass reconstructors
// and the one-pass decode kernels invert them — the hoisted border cases and
// the term order of each stencil included.
func TestFusedKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sh := range fusedShapes {
		data := make([]float32, sh[0]*sh[1]*sh[2])
		for i := range data {
			data[i] = float32(math.Sin(float64(i)/9)) + rng.Float32()*0.01
		}
		data[len(data)/2] = 1e9
		data[len(data)/3] = float32(math.NaN())
		fusedMatchesReference(t, data, sh[0], sh[1], sh[2], 1e-3)

		// Slice 0 (row 0 of a 2-D shape) at 2^29 and the rest near 1e-3:
		// the stencil's large terms cancel, and a partial sum just above
		// 2^29 rounds on twice the grid of one just below it, so an
		// element's bits depend on the order its terms are summed in.
		big := sh[2]
		if sh[0] > 1 {
			big *= sh[1]
		}
		for i := range data {
			data[i] = 1e-3*float32(math.Sin(float64(i)/5)) + rng.Float32()*1e-5
			if i < big {
				data[i] = 1 << 29
			}
		}
		fusedMatchesReference(t, data, sh[0], sh[1], sh[2], 1e-6)
	}
}

// quantizerEdges is a field of zeros, at eb 0.5 so that two error bounds are
// one unit and every quotient below is exact, with the values the shortened
// recurrence's identity rests on planted every fifth element: quotients at
// the last codes inside the range (radius-1 either way), exactly at and just
// past its ends (which must go verbatim), differences of -0 and of a
// denormal either side of it, and non-finite neighbours. The zeros after a
// planted value are quantized against it, so each quotient shows up with
// both signs.
func quantizerEdges(n int) []float32 {
	tiny := math.SmallestNonzeroFloat32
	planted := []float64{radius - 1, 1 - radius, radius, -radius, radius + 1, math.Copysign(0, -1),
		-tiny, tiny, -0.5, 0.5, math.NaN(), math.Inf(1), math.Inf(-1)}
	data := make([]float32, n)
	for k := 0; 5*k+2 < n; k++ {
		data[5*k+2] = float32(planted[k%len(planted)])
	}
	return data
}

// TestFusedKernelsAtQuantizerEdges pins the identity qz rests on — the
// reconstruction formed from the floored quotient is the one formed from the
// integer code — where it could break, in every kernel, and an all-verbatim
// field (every code 0) beside it.
func TestFusedKernelsAtQuantizerEdges(t *testing.T) {
	for _, sh := range fusedShapes {
		n := sh[0] * sh[1] * sh[2]
		codes := fusedMatchesReference(t, quantizerEdges(n), sh[0], sh[1], sh[2], 0.5)
		if sh[0] == 1 && sh[1] == 1 {
			// 1-D: each planted value is predicted from a zero, and the zero
			// after it from the planted value.
			want := map[int]int{2: 2*radius - 1, 3: 1, 7: 1, 8: 2*radius - 1, 12: 0, 13: 0, 17: 0, 18: 0, 22: 0, 23: 0, 27: radius}
			for idx, code := range want {
				if codes[idx] != code {
					t.Fatalf("1-D edge field: code[%d] = %d, want %d", idx, codes[idx], code)
				}
			}
		}

		jumps := make([]float32, n)
		for i := range jumps {
			jumps[i] = float32(float64(1+i) * 1e6 * float64(1-2*(i%2)))
		}
		for i, c := range fusedMatchesReference(t, jumps, sh[0], sh[1], sh[2], 0.5) {
			if c != 0 {
				t.Fatalf("%v: alternating 1e6 jumps: code[%d] = %d, want every value verbatim", sh, i, c)
			}
		}
	}
}

// TestQuickFusedKernelsMatchReference is the same differential over random
// shapes, bounds and fields salted with the edge values; -quickchecks scales
// it with the bound invariants.
func TestQuickFusedKernelsMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sh := fusedShapes[rng.Intn(len(fusedShapes))]
		eb := []float64{0.5, 1e-3, 1e-6}[rng.Intn(3)]
		edges := quantizerEdges(64)
		data := make([]float32, sh[0]*sh[1]*sh[2])
		walk := 0.0
		for i := range data {
			walk += rng.NormFloat64() * eb * 40
			data[i] = float32(walk)
			if rng.Intn(16) == 0 {
				data[i] = float32(float64(edges[rng.Intn(len(edges))]) * 2 * eb)
			}
		}
		fusedMatchesReference(t, data, sh[0], sh[1], sh[2], eb)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 2, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestPred2DBorders(t *testing.T) {
	// 2x3 reconstructed grid:
	//  1 2 3
	//  4 5 .
	recon := []float32{1, 2, 3, 4, 5, 0}
	d2 := 3
	cases := []struct {
		i, j int
		want float64
	}{
		{0, 0, 0},         // origin: no neighbors
		{0, 1, 1},         // first row: left neighbor
		{0, 2, 2},         // first row: left neighbor
		{1, 0, 1},         // first column: upper neighbor
		{1, 1, 4 + 2 - 1}, // interior: full Lorenzo stencil
		{1, 2, 5 + 3 - 2}, // interior
	}
	for _, c := range cases {
		if got := pred2D(recon, c.i, c.j, d2); got != c.want {
			t.Errorf("pred2D(%d,%d) = %v, want %v", c.i, c.j, got, c.want)
		}
	}
}

func TestPred3DInclusionExclusion(t *testing.T) {
	// For a trilinear function f(i,j,k) = a + bi + cj + dk, the 3-D
	// Lorenzo stencil predicts interior points exactly.
	d1, d2 := 3, 3
	recon := make([]float32, 3*d1*d2)
	f := func(i, j, k int) float32 {
		return float32(7 + 2*i - 3*j + 5*k)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < d1; j++ {
			for k := 0; k < d2; k++ {
				recon[(i*d1+j)*d2+k] = f(i, j, k)
			}
		}
	}
	for i := 1; i < 3; i++ {
		for j := 1; j < d1; j++ {
			for k := 1; k < d2; k++ {
				got := pred3D(recon, i, j, k, d1, d2)
				if math.Abs(got-float64(f(i, j, k))) > 1e-9 {
					t.Errorf("pred3D(%d,%d,%d) = %v, want %v", i, j, k, got, f(i, j, k))
				}
			}
		}
	}
	// Origin predicts 0; axis edges degrade to lower-order stencils.
	if pred3D(recon, 0, 0, 0, d1, d2) != 0 {
		t.Error("origin prediction not 0")
	}
	if got := pred3D(recon, 0, 0, 1, d1, d2); got != float64(f(0, 0, 0)) {
		t.Errorf("k-edge prediction %v", got)
	}
}

func TestQuantizeOneExactCenter(t *testing.T) {
	// A value exactly at the prediction quantizes to the center code and
	// reconstructs exactly.
	code, recon, ok := quantizeOne(5.0, 5.0, 2e-3, 1e-3, 1<<15)
	if !ok || code != 1<<15 || recon != 5.0 {
		t.Fatalf("center: code=%d recon=%v ok=%v", code, recon, ok)
	}
}

func TestQuantizeOneRangeLimits(t *testing.T) {
	radius := 8 // tiny quantizer for the test
	// Diff just inside the representable range quantizes...
	if _, _, ok := quantizeOne(float32(2*1e-3*6), 0, 2e-3, 1e-3, radius); !ok {
		t.Error("in-range diff rejected")
	}
	// ... and just beyond it falls back to exact storage.
	if _, _, ok := quantizeOne(float32(2*1e-3*9), 0, 2e-3, 1e-3, radius); ok {
		t.Error("out-of-range diff accepted")
	}
}

func TestQuantizeOneNonFinitePrediction(t *testing.T) {
	// A NaN prediction (possible from corrupted neighbors) must not
	// produce a bogus quantization.
	if _, _, ok := quantizeOne(1.0, math.NaN(), 2e-3, 1e-3, 1<<15); ok {
		t.Error("NaN prediction accepted")
	}
	if _, _, ok := quantizeOne(1.0, math.Inf(1), 2e-3, 1e-3, 1<<15); ok {
		t.Error("Inf prediction accepted")
	}
}

// Property: whenever quantizeOne accepts, dequantOne of its code under the
// same prediction returns the same reconstruction, within the bound.
func TestQuickQuantDequantConsistent(t *testing.T) {
	f := func(val float32, pred float64) bool {
		if math.IsNaN(float64(val)) || math.IsInf(float64(val), 0) ||
			math.IsNaN(pred) || math.IsInf(pred, 0) || math.Abs(pred) > 1e30 {
			return true
		}
		eb := 1e-3
		code, recon, ok := quantizeOne(val, pred, 2*eb, eb, 1<<15)
		if !ok {
			return true
		}
		back := dequantOne(code, pred, 2*eb, 1<<15)
		return back == recon && math.Abs(float64(recon)-float64(val)) <= eb
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 5, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// The two-pass decode the one-pass kernels in predict.go replaced: every
// symbol of the partition Huffman-decoded into a codes buffer, then each
// element reconstructed from its code, its verbatim values pulled through a
// closure. refDecodePartition is the reference TestFusedDecodeMatchesReference
// and FuzzDecodeDifferential hold decodePartition to.

func reconstruct1D(recon []float32, codes []int, nextExact func() (float32, error), twoEB float64) error {
	var left float64
	for i, c := range codes {
		if c == 0 {
			v, err := nextExact()
			if err != nil {
				return err
			}
			recon[i] = v
			left = float64(v)
			continue
		}
		rf := float32(left + float64(c-radius)*twoEB)
		recon[i] = rf
		left = float64(rf)
	}
	return nil
}

func reconstruct2D(recon []float32, codes []int, nextExact func() (float32, error), d1, d2 int, twoEB float64) error {
	var left float64
	step := func(idx int, pred float64) error {
		if codes[idx] == 0 {
			v, err := nextExact()
			if err != nil {
				return err
			}
			recon[idx] = v
			left = float64(v)
			return nil
		}
		rf := float32(pred + float64(codes[idx]-radius)*twoEB)
		recon[idx] = rf
		left = float64(rf)
		return nil
	}
	for j := 0; j < d2; j++ {
		if err := step(j, left); err != nil {
			return err
		}
	}
	for i := 1; i < d1; i++ {
		row := i * d2
		if err := step(row, float64(recon[row-d2])); err != nil {
			return err
		}
		for idx := row + 1; idx < row+d2; idx++ {
			pred := left + float64(recon[idx-d2]) - float64(recon[idx-d2-1])
			if err := step(idx, pred); err != nil {
				return err
			}
		}
	}
	return nil
}

func reconstruct3D(recon []float32, codes []int, nextExact func() (float32, error), d0, d1, d2 int, twoEB float64) error {
	sd := d1 * d2
	var left float64
	step := func(idx int, pred float64) error {
		if codes[idx] == 0 {
			v, err := nextExact()
			if err != nil {
				return err
			}
			recon[idx] = v
			left = float64(v)
			return nil
		}
		rf := float32(pred + float64(codes[idx]-radius)*twoEB)
		recon[idx] = rf
		left = float64(rf)
		return nil
	}
	for k := 0; k < d2; k++ {
		if err := step(k, left); err != nil {
			return err
		}
	}
	for j := 1; j < d1; j++ {
		row := j * d2
		if err := step(row, float64(recon[row-d2])); err != nil {
			return err
		}
		for idx := row + 1; idx < row+d2; idx++ {
			pred := left + float64(recon[idx-d2]) - float64(recon[idx-d2-1])
			if err := step(idx, pred); err != nil {
				return err
			}
		}
	}
	for i := 1; i < d0; i++ {
		base := i * sd
		if err := step(base, float64(recon[base-sd])); err != nil {
			return err
		}
		for idx := base + 1; idx < base+d2; idx++ {
			pred := left + float64(recon[idx-sd]) - float64(recon[idx-sd-1])
			if err := step(idx, pred); err != nil {
				return err
			}
		}
		for j := 1; j < d1; j++ {
			row := base + j*d2
			pred := float64(recon[row-d2]) + float64(recon[row-sd]) - float64(recon[row-sd-d2])
			if err := step(row, pred); err != nil {
				return err
			}
			for idx := row + 1; idx < row+d2; idx++ {
				pred := left + float64(recon[idx-d2]) + float64(recon[idx-sd]) -
					float64(recon[idx-d2-1]) - float64(recon[idx-sd-1]) - float64(recon[idx-sd-d2]) +
					float64(recon[idx-sd-d2-1])
				if err := step(idx, pred); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// refDecodePartition is decodePartition as two passes: DecodeAll into a codes
// buffer, then the reconstruct pass over it.
func refDecodePartition(lane *decLane, payload []byte, outPart []float32, dims []int, twoEB float64) error {
	exact, err := openPartition(lane, payload, len(outPart))
	if err != nil {
		return err
	}
	codes := make([]int, len(outPart))
	if err := lane.code.DecodeAll(&lane.br, codes, quantCount); err != nil {
		return fmt.Errorf("sz: huffman payload: %w", err)
	}
	exactIdx := 0
	nextExact := func() (float32, error) {
		if exactIdx >= len(exact) {
			return 0, ErrCorrupt
		}
		v := exact[exactIdx]
		exactIdx++
		return v, nil
	}
	switch rank, d0, d1, d2 := wire.Collapse(dims); rank {
	case 1:
		err = reconstruct1D(outPart, codes, nextExact, twoEB)
	case 2:
		err = reconstruct2D(outPart, codes, nextExact, d1, d2, twoEB)
	default:
		err = reconstruct3D(outPart, codes, nextExact, d0, d1, d2, twoEB)
	}
	if err != nil {
		return err
	}
	if exactIdx != len(exact) {
		return ErrCorrupt
	}
	return nil
}

// refDecompress decodes buf through refDecodePartition, one partition after
// another, stopping at the first that fails — the partition DecompressInto
// reports too.
func refDecompress(buf []byte) ([]float32, error) {
	h := NewHandle(1)
	ix, err := h.readIndex(buf)
	if err != nil {
		return nil, err
	}
	out := make([]float32, ix.n)
	var lane decLane
	for i, sp := range h.spans {
		pd := partDims(ix.dims, ix.splitDepth, sp.hi-sp.lo, nil)
		if err := refDecodePartition(&lane, h.payloads[i], out[sp.lo*ix.rowElems:sp.hi*ix.rowElems], pd, 2*ix.eb); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// errClass maps an error to the sentinel it wraps (nil for none), so "same
// error class" is one comparison.
func errClass(err error) error {
	for _, class := range []error{ErrCorrupt, huffman.ErrCorrupt, huffman.ErrBadLengths,
		huffman.ErrNoSymbols, bitstream.ErrOverrun, lossless.ErrCorrupt} {
		if errors.Is(err, class) {
			return class
		}
	}
	return nil
}

// diffDecode requires Decompress and refDecompress to agree on buf: both
// fail with the same error — class and message — or both succeed with the
// same bits.
func diffDecode(t *testing.T, buf []byte, what string) (ok bool) {
	t.Helper()
	want, werr := refDecompress(buf)
	// One worker pairs every same-row pair, two leave the pool's width
	// unpaired.
	for _, workers := range []int{1, 2} {
		got, _, gerr := NewHandle(workers).Decompress(buf)
		if !sameErr(gerr, werr) {
			t.Fatalf("%s at %d workers: err %v, reference %v", what, workers, gerr, werr)
		}
		if werr == nil && !sameBits(got, want) {
			t.Fatalf("%s at %d workers: decoded bits differ from the reference's", what, workers)
		}
	}
	return werr == nil
}

// sameErr reports whether a and b are both nil or the same error: class and
// message.
func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && errClass(a) == errClass(b) && (a == nil || a.Error() == b.Error())
}

// pairedAsAlone requires decodePair over stream's first two partitions to
// report, for each side, the error decodePartition reports for it alone, and
// returns the first partition's.
func pairedAsAlone(t *testing.T, stream []byte, what string) error {
	t.Helper()
	h := NewHandle(1)
	ix, err := h.readIndex(stream)
	if err != nil {
		t.Fatal(err)
	}
	sp := h.spans
	if sp[0].hi-sp[0].lo != sp[1].hi-sp[1].lo {
		t.Fatalf("%s: partitions 0 and 1 differ in rows", what)
	}
	pd := partDims(ix.dims, ix.splitDepth, sp[0].hi-sp[0].lo, nil)
	out := func(k int) []float32 { return make([]float32, (sp[k].hi-sp[k].lo)*ix.rowElems) }
	var alone, lane decLane
	want := [2]error{
		decodePartition(&alone, h.payloads[0], out(0), pd, 2*ix.eb),
		decodePartition(&alone, h.payloads[1], out(1), pd, 2*ix.eb),
	}
	var got [2]error
	got[0], got[1] = decodePair(&lane, h.payloads[0], h.payloads[1], out(0), out(1), pd, 2*ix.eb)
	for k := range got {
		if !sameErr(got[k], want[k]) {
			t.Fatalf("%s: paired side %d err %v, alone %v", what, k, got[k], want[k])
		}
	}
	return want[0]
}

// currentGoldens returns the committed streams of the one configuration the
// decoder reads.
func currentGoldens(tb testing.TB) map[string][]byte {
	paths, _ := filepath.Glob(filepath.Join("testdata", "golden_*.szs"))
	out := map[string][]byte{}
	for _, path := range paths {
		if isRetiredGolden(path) {
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		out[filepath.Base(path)] = raw
	}
	if len(out) == 0 {
		tb.Fatal("no golden streams")
	}
	return out
}

// TestFusedDecodeMatchesReference holds the one-pass decoder to the two-pass
// reference, bit for bit: on every golden stream, on the matrix field cut
// into 96 partitions, and on 1-D, 2-D and 3-D fields where many values are
// stored verbatim — NaN, ±Inf and the quantizer's edge quotients.
func TestFusedDecodeMatchesReference(t *testing.T) {
	for name, stream := range currentGoldens(t) {
		if !diffDecode(t, stream, name) {
			t.Fatalf("%s: the reference refuses a golden stream", name)
		}
	}

	saved := partTargetElems
	defer func() { partTargetElems = saved }()
	partTargetElems = 1 << 14
	data, dims := multiPartField(t)
	stream, err := NewHandle(0).Compress(data, dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if parts := len(partitionPayloads(t, stream)); parts != 96 {
		t.Fatalf("matrix field: %d partitions, want 96", parts)
	}
	diffDecode(t, stream, "96-partition matrix field")

	partTargetElems = 1 << 10
	rng := rand.New(rand.NewSource(35))
	for _, dims := range [][]int{{4099}, {37, 61}, {5, 19, 23}} {
		n := 1
		for _, d := range dims {
			n *= d
		}
		for _, eb := range []float64{0.5, 1e-3} {
			data := quantizerEdges(n)
			for i := range data {
				if i%5 != 2 {
					data[i] = float32(float64(data[i]) + rng.NormFloat64()*eb*30)
				}
			}
			data[n/3] = float32(math.NaN())
			data[n/2] = float32(math.Inf(-1))
			stream, err := NewHandle(0).Compress(data, dims, eb)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%v edge field at %g", dims, eb)
			if !diffDecode(t, stream, what) {
				t.Fatalf("%s: the reference refuses it", what)
			}
		}
	}
}

// partitionContainer is partition i's container under the lossless stage:
// its verbatim values and its Huffman bytes (table, then symbols).
func partitionContainer(t testing.TB, stream []byte, i int) (exact []float32, huff []byte) {
	t.Helper()
	raw, err := lossless.Decompress(partitionPayloads(t, stream)[i])
	if err != nil {
		t.Fatal(err)
	}
	rd := wire.NewReader(raw, ErrCorrupt)
	exact = make([]float32, rd.Uint64())
	for k := range exact {
		exact[k] = rd.Float32()
	}
	huff = rd.Bytes(int(rd.Uint64()))
	if rd.Err() != nil {
		t.Fatal(rd.Err())
	}
	return exact, huff
}

// restream returns stream with partition i's container replaced by
// (exact, huff), lossless-coded afresh, and the partition index rewritten to
// match: a stream whose header is sound and whose partition is not.
func restream(t testing.TB, stream []byte, i int, exact []float32, huff []byte) []byte {
	t.Helper()
	inner := wire.AppendUint64(nil, uint64(len(exact)))
	for _, v := range exact {
		inner = wire.AppendFloat32(inner, v)
	}
	inner = wire.AppendUint64(inner, uint64(len(huff)))
	inner = append(inner, huff...)
	payloads := partitionPayloads(t, stream)
	sum := 0
	for _, p := range payloads {
		sum += len(p)
	}
	h := NewHandle(1)
	if _, err := h.readIndex(stream); err != nil {
		t.Fatal(err)
	}
	payloads[i] = lossless.AppendCompress(nil, inner, lossless.Defaults())
	out := append([]byte(nil), stream[:len(stream)-sum-16*len(payloads)]...)
	for j, sp := range h.spans {
		out = wire.AppendUint64(out, uint64(sp.hi-sp.lo))
		out = wire.AppendUint64(out, uint64(len(payloads[j])))
	}
	for _, p := range payloads {
		out = append(out, p...)
	}
	return out
}

// hostilePartitions are streams, derived from a golden, whose first
// partition ends its Huffman bytes at every stride-th byte (mid-code, mostly),
// has a bit flipped there, or stores one verbatim value too few or too many
// — alone, and with the symbols cut short too, where the Huffman error must
// be the one reported. The first is the golden re-coded, intact.
func hostilePartitions(t testing.TB, stream []byte, stride int) [][]byte {
	exact, huff := partitionContainer(t, stream, 0)
	if len(exact) == 0 {
		t.Fatal("golden's first partition stores no verbatim value")
	}
	fewer, more := exact[:len(exact)-1], append(append([]float32(nil), exact...), 7)
	out := [][]byte{restream(t, stream, 0, exact, huff), restream(t, stream, 0, fewer, huff),
		restream(t, stream, 0, more, huff)}
	for cut := 0; cut < len(huff); cut += stride {
		out = append(out, restream(t, stream, 0, exact, huff[:cut]), restream(t, stream, 0, fewer, huff[:cut]))
		flip := append([]byte(nil), huff...)
		flip[cut] ^= 1 << (cut % 8)
		out = append(out, restream(t, stream, 0, exact, flip))
	}
	return out
}

// TestFusedDecodeErrorPrecedence runs the differential over hostile
// partitions of the 3-D golden: the one-pass decoder reports what the two
// passes reported — a Huffman error ahead of a verbatim-count mismatch. The
// golden's first two partitions share a paired pass, where each side reports
// what it reports alone: with the first partition hostile, and with one
// side's Huffman bytes cut while the other stores one verbatim value too
// few, or its container does not open, where the stream's error is the
// first partition's.
func TestFusedDecodeErrorPrecedence(t *testing.T) {
	stream := currentGoldens(t)["golden_v4_order1_3d.f32.szs"]
	hostile := hostilePartitions(t, stream, 29)
	if !diffDecode(t, hostile[0], "re-coded golden") {
		t.Fatal("the golden re-coded partition by partition does not decode")
	}
	classes := map[error]int{}
	for i, s := range hostile[1:] {
		what := fmt.Sprintf("hostile stream %d", i+1)
		pairedAsAlone(t, s, what)
		if !diffDecode(t, s, what) {
			_, err := refDecompress(s)
			classes[errClass(err)]++
		}
	}
	for _, class := range []error{ErrCorrupt, bitstream.ErrOverrun} {
		if classes[class] == 0 {
			t.Fatalf("no hostile stream failed with %v; classes %v", class, classes)
		}
	}

	x0, h0 := partitionContainer(t, stream, 0)
	x1, h1 := partitionContainer(t, stream, 1)
	if len(x0) == 0 || len(x1) == 0 {
		t.Fatal("golden's first two partitions do not both store a verbatim value")
	}
	// More verbatim values than elements: a container that does not open.
	unopened := make([]float32, len(x0)+2*32*32)
	for k, c := range []struct {
		x0, x1 []float32
		h0, h1 []byte
	}{
		{x0, x1[:len(x1)-1], h0[:len(h0)/2], h1},
		{x0[:len(x0)-1], x1, h0, h1[:len(h1)/2]},
		{x0, unopened, h0[:len(h0)/2], h1},
		{unopened, x1, h0, h1[:len(h1)/2]},
	} {
		what := fmt.Sprintf("cross-hostile pair %d", k)
		s := restream(t, restream(t, stream, 0, c.x0, c.h0), 1, c.x1, c.h1)
		first := pairedAsAlone(t, s, what)
		if _, _, err := NewHandle(1).Decompress(s); first == nil || !sameErr(err, first) {
			t.Fatalf("%s: err %v, want the first partition's %v", what, err, first)
		}
		diffDecode(t, s, what)
	}
}
