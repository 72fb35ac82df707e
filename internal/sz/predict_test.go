package sz

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
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
func quantizeOne[F Float](val F, pred, twoEB, eb float64, radius int) (code int, recon F, ok bool) {
	diff := float64(val) - pred
	qf := math.Floor(diff/twoEB + 0.5)
	if !(qf > float64(-radius) && qf < float64(radius)) {
		return 0, 0, false
	}
	q := int(qf)
	r := pred + float64(q)*twoEB
	rf := F(r)
	if !(math.Abs(float64(rf)-float64(val)) <= eb) {
		// Catches reconstruction error > eb, and rf being NaN/Inf (the
		// comparison is then false), in one test.
		return 0, 0, false
	}
	return q + radius, rf, true
}

// dequantOne reconstructs a value from its code and prediction.
func dequantOne[F Float](code int, pred, twoEB float64, radius int) F {
	return F(pred + float64(code-radius)*twoEB)
}

// pred2D computes the first-order 2-D Lorenzo prediction
// f(i,j) ~ f(i,j-1) + f(i-1,j) - f(i-1,j-1), degrading gracefully at the
// array borders. The fused kernels in predict.go hoist this boundary switch
// out of the inner loop; pred2D is the element-at-a-time reference
// TestFusedKernelsMatchReference holds them to.
func pred2D[F Float](recon []F, i, j, d2 int) float64 {
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
func pred3D[F Float](recon []F, i, j, k, d1, d2 int) float64 {
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
func refQuantize[F Float](data []F, d0, d1, d2 int, eb float64) (codes []int, recon, exact []F) {
	codes = make([]int, len(data))
	recon = make([]F, len(data))
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
func sameBits[F Float](a, b []F) bool {
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
// reconstruction, the same verbatim values in raster order, and a fused
// reconstructor that inverts them. It returns the codes for callers that
// know what they should be.
func fusedMatchesReference[F Float](t *testing.T, data []F, d0, d1, d2 int, eb float64) []int {
	t.Helper()
	wantCodes, wantRecon, wantExact := refQuantize(data, d0, d1, d2, eb)

	codes := make([]int, len(data))
	recon := make([]F, len(data))
	var exact []F
	switch {
	case d0 == 1 && d1 == 1:
		quantize1D(data, recon, codes, &exact, 2*eb, eb)
	case d0 == 1:
		quantize2D(data, recon, codes, &exact, d1, d2, 2*eb, eb)
	default:
		quantize3D(data, recon, codes, &exact, d0, d1, d2, 2*eb, eb)
	}
	for i := range codes {
		if codes[i] != wantCodes[i] {
			t.Fatalf("%dx%dx%d: code %d = %d, reference %d", d0, d1, d2, i, codes[i], wantCodes[i])
		}
	}
	if !sameBits(recon, wantRecon) || !sameBits(exact, wantExact) {
		t.Fatalf("%dx%dx%d: fused reconstruction or verbatim values differ from the reference", d0, d1, d2)
	}

	next := 0
	nextExact := func() (F, error) { next++; return exact[next-1], nil }
	back := make([]F, len(data))
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
	return codes
}

var fusedShapes = [][3]int{{1, 1, 257}, {1, 19, 23}, {1, 2, 1}, {5, 7, 11}, {2, 1, 9}, {3, 4, 1}}

// TestFusedKernelsMatchReference: on noisy fields with spikes and non-finite
// values, every fused kernel emits exactly the reference's codes,
// reconstruction and verbatim values, and the fused reconstructors invert
// them — the hoisted border cases and the term order of each stencil included.
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
func quantizerEdges[F Float](n int) []F {
	tiny := math.SmallestNonzeroFloat32
	planted := []float64{radius - 1, 1 - radius, radius, -radius, radius + 1, math.Copysign(0, -1),
		-tiny, tiny, -0.5, 0.5, math.NaN(), math.Inf(1), math.Inf(-1)}
	data := make([]F, n)
	for k := 0; 5*k+2 < n; k++ {
		data[5*k+2] = F(planted[k%len(planted)])
	}
	return data
}

// TestFusedKernelsAtQuantizerEdges pins the identity qz rests on — the
// reconstruction formed from the floored quotient is the one formed from the
// integer code — where it could break, in every kernel and both precisions,
// and an all-verbatim field (every code 0) beside it.
func TestFusedKernelsAtQuantizerEdges(t *testing.T) {
	for _, sh := range fusedShapes {
		n := sh[0] * sh[1] * sh[2]
		c32 := fusedMatchesReference(t, quantizerEdges[float32](n), sh[0], sh[1], sh[2], 0.5)
		c64 := fusedMatchesReference(t, quantizerEdges[float64](n), sh[0], sh[1], sh[2], 0.5)
		if sh[0] == 1 && sh[1] == 1 {
			// 1-D: each planted value is predicted from a zero, and the zero
			// after it from the planted value.
			want := map[int]int{2: 2*radius - 1, 3: 1, 7: 1, 8: 2*radius - 1, 12: 0, 13: 0, 17: 0, 18: 0, 22: 0, 23: 0, 27: radius}
			for idx, code := range want {
				if c32[idx] != code || c64[idx] != code {
					t.Fatalf("1-D edge field: code[%d] = %d (float32), %d (float64), want %d", idx, c32[idx], c64[idx], code)
				}
			}
		}

		jumps32, jumps64 := make([]float32, n), make([]float64, n)
		for i := range jumps64 {
			jumps64[i] = float64(1+i) * 1e6 * float64(1-2*(i%2))
			jumps32[i] = float32(jumps64[i])
		}
		for _, codes := range [][]int{
			fusedMatchesReference(t, jumps32, sh[0], sh[1], sh[2], 0.5),
			fusedMatchesReference(t, jumps64, sh[0], sh[1], sh[2], 0.5),
		} {
			for i, c := range codes {
				if c != 0 {
					t.Fatalf("%v: alternating 1e6 jumps: code[%d] = %d, want every value verbatim", sh, i, c)
				}
			}
		}
	}
}

// TestQuickFusedKernelsMatchReference is the same differential over random
// shapes, bounds and fields salted with the edge values, in both precisions;
// -quickchecks scales it with the bound invariants.
func TestQuickFusedKernelsMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sh := fusedShapes[rng.Intn(len(fusedShapes))]
		eb := []float64{0.5, 1e-3, 1e-6}[rng.Intn(3)]
		edges := quantizerEdges[float64](64)
		data := make([]float64, sh[0]*sh[1]*sh[2])
		walk := 0.0
		for i := range data {
			walk += rng.NormFloat64() * eb * 40
			data[i] = walk
			if rng.Intn(16) == 0 {
				data[i] = edges[rng.Intn(len(edges))] * 2 * eb
			}
		}
		if seed%2 == 0 {
			fusedMatchesReference(t, data, sh[0], sh[1], sh[2], eb)
		} else {
			d32 := make([]float32, len(data))
			for i, v := range data {
				d32[i] = float32(v)
			}
			fusedMatchesReference(t, d32, sh[0], sh[1], sh[2], eb)
		}
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
	code, recon, ok := quantizeOne[float32](5.0, 5.0, 2e-3, 1e-3, 1<<15)
	if !ok || code != 1<<15 || recon != 5.0 {
		t.Fatalf("center: code=%d recon=%v ok=%v", code, recon, ok)
	}
}

func TestQuantizeOneRangeLimits(t *testing.T) {
	radius := 8 // tiny quantizer for the test
	// Diff just inside the representable range quantizes...
	if _, _, ok := quantizeOne[float32](float32(2*1e-3*6), 0, 2e-3, 1e-3, radius); !ok {
		t.Error("in-range diff rejected")
	}
	// ... and just beyond it falls back to exact storage.
	if _, _, ok := quantizeOne[float32](float32(2*1e-3*9), 0, 2e-3, 1e-3, radius); ok {
		t.Error("out-of-range diff accepted")
	}
}

func TestQuantizeOneNonFinitePrediction(t *testing.T) {
	// A NaN prediction (possible from corrupted neighbors) must not
	// produce a bogus quantization.
	if _, _, ok := quantizeOne[float32](1.0, math.NaN(), 2e-3, 1e-3, 1<<15); ok {
		t.Error("NaN prediction accepted")
	}
	if _, _, ok := quantizeOne[float32](1.0, math.Inf(1), 2e-3, 1e-3, 1<<15); ok {
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
		back := dequantOne[float32](code, pred, 2*eb, 1<<15)
		return back == recon && math.Abs(float64(recon)-float64(val)) <= eb
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 5, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
