package sz

import "math"

// Float constrains the element types both precisions of the codec accept.
type Float interface {
	~float32 | ~float64
}

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

// qz is the fused quantize step: quantizeOne minus the multi-return shuffle,
// small enough for the compiler to inline into the kernel loops below (Floor
// and Abs are intrinsics). A negative code means unpredictable. The
// arithmetic — floor(diff/twoEB + 0.5), reconstruct pred + q*twoEB, verify
// |recon-val| <= eb — is byte-for-byte the same as quantizeOne's, so fused
// kernels and the reference path produce identical streams.
func qz[F Float](val F, pred, twoEB, eb float64, radius int) (int, F) {
	qf := math.Floor((float64(val)-pred)/twoEB + 0.5)
	if qf > float64(-radius) && qf < float64(radius) {
		q := int(qf)
		rf := F(pred + float64(q)*twoEB)
		if math.Abs(float64(rf)-float64(val)) <= eb {
			return q + radius, rf
		}
	}
	return -1, 0
}

// dequantOne reconstructs a value from its code and prediction.
func dequantOne[F Float](code int, pred, twoEB float64, radius int) F {
	return F(pred + float64(code-radius)*twoEB)
}

// storeExact records an unpredictable value: code 0, verbatim payload.
func storeExact[F Float](i int, val F, codes []int, recon []F, exact *[]F) {
	codes[i] = 0
	recon[i] = val
	*exact = append(*exact, val)
}

// --- 1-D ---------------------------------------------------------------------

// quantize1D is the fused previous-value kernel. It doubles as the order-0
// path for every dimensionality: predicting from the immediately preceding
// element in flattened order is exactly the 1-D predictor on the flat array.
func quantize1D[F Float](data, recon []F, codes []int, exact *[]F,
	twoEB, eb float64, radius, quantCount int, opts Options) {
	ex := *exact
	var pred float64
	for i, val := range data {
		if i > 0 {
			pred = float64(recon[i-1])
		}
		if c, rf := qz(val, pred, twoEB, eb, radius); c >= 0 {
			codes[i] = c
			recon[i] = rf
		} else {
			codes[i] = 0
			recon[i] = val
			ex = append(ex, val)
		}
	}
	*exact = ex
}

func reconstruct1D[F Float](recon []F, codes []int, nextExact func() (F, error),
	twoEB float64, radius int, opts Options) error {
	var pred float64
	for i, c := range codes {
		if i > 0 {
			pred = float64(recon[i-1])
		}
		if c == 0 {
			v, err := nextExact()
			if err != nil {
				return err
			}
			recon[i] = v
			continue
		}
		recon[i] = F(pred + float64(c-radius)*twoEB)
	}
	return nil
}

// --- 2-D ---------------------------------------------------------------------

// pred2D computes the first-order 2-D Lorenzo prediction
// f(i,j) ~ f(i,j-1) + f(i-1,j) - f(i-1,j-1), degrading gracefully at the
// array borders. The fused kernels below hoist this boundary switch out of
// the inner loop; pred2D remains the reference (and the regression
// predictor's building block), and the equivalence tests hold the two paths
// together.
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

func quantize2D[F Float](data, recon []F, codes []int, exact *[]F,
	d1, d2 int, twoEB, eb float64, radius, quantCount int, opts Options) {
	if opts.PredictorOrder == 0 {
		quantize1D(data, recon, codes, exact, twoEB, eb, radius, quantCount, opts)
		return
	}
	ex := *exact
	// Row 0 warms up with the previous-value predictor (pred2D's j>0 case).
	var pred float64
	for j := 0; j < d2; j++ {
		if j > 0 {
			pred = float64(recon[j-1])
		}
		if c, rf := qz(data[j], pred, twoEB, eb, radius); c >= 0 {
			codes[j] = c
			recon[j] = rf
		} else {
			codes[j] = 0
			recon[j] = data[j]
			ex = append(ex, data[j])
		}
	}
	for i := 1; i < d1; i++ {
		row := i * d2
		// Column 0: only the neighbor above exists.
		if c, rf := qz(data[row], float64(recon[row-d2]), twoEB, eb, radius); c >= 0 {
			codes[row] = c
			recon[row] = rf
		} else {
			codes[row] = 0
			recon[row] = data[row]
			ex = append(ex, data[row])
		}
		// Interior: full stencil, evaluated left-to-right exactly as pred2D
		// does so the float64 rounding matches term for term.
		for idx := row + 1; idx < row+d2; idx++ {
			pred := float64(recon[idx-1]) + float64(recon[idx-d2]) - float64(recon[idx-d2-1])
			if c, rf := qz(data[idx], pred, twoEB, eb, radius); c >= 0 {
				codes[idx] = c
				recon[idx] = rf
			} else {
				codes[idx] = 0
				recon[idx] = data[idx]
				ex = append(ex, data[idx])
			}
		}
	}
	*exact = ex
}

func reconstruct2D[F Float](recon []F, codes []int, nextExact func() (F, error),
	d1, d2 int, twoEB float64, radius int, opts Options) error {
	if opts.PredictorOrder == 0 {
		return reconstruct1D(recon, codes, nextExact, twoEB, radius, opts)
	}
	var pred float64
	for j := 0; j < d2; j++ {
		if j > 0 {
			pred = float64(recon[j-1])
		}
		if codes[j] == 0 {
			v, err := nextExact()
			if err != nil {
				return err
			}
			recon[j] = v
			continue
		}
		recon[j] = F(pred + float64(codes[j]-radius)*twoEB)
	}
	for i := 1; i < d1; i++ {
		row := i * d2
		if codes[row] == 0 {
			v, err := nextExact()
			if err != nil {
				return err
			}
			recon[row] = v
		} else {
			recon[row] = F(float64(recon[row-d2]) + float64(codes[row]-radius)*twoEB)
		}
		for idx := row + 1; idx < row+d2; idx++ {
			if codes[idx] == 0 {
				v, err := nextExact()
				if err != nil {
					return err
				}
				recon[idx] = v
				continue
			}
			pred := float64(recon[idx-1]) + float64(recon[idx-d2]) - float64(recon[idx-d2-1])
			recon[idx] = F(pred + float64(codes[idx]-radius)*twoEB)
		}
	}
	return nil
}

// --- 3-D ---------------------------------------------------------------------

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

func quantize3D[F Float](data, recon []F, codes []int, exact *[]F,
	d0, d1, d2 int, twoEB, eb float64, radius, quantCount int, opts Options) {
	if opts.PredictorOrder == 0 {
		quantize1D(data, recon, codes, exact, twoEB, eb, radius, quantCount, opts)
		return
	}
	ex := *exact
	// Slice 0 follows the 2-D stencil: pred3D with i=0 degenerates to
	// pred2D over (j,k) exactly.
	sd := d1 * d2 // slice stride
	var pred float64
	for k := 0; k < d2; k++ {
		if k > 0 {
			pred = float64(recon[k-1])
		}
		if c, rf := qz(data[k], pred, twoEB, eb, radius); c >= 0 {
			codes[k] = c
			recon[k] = rf
		} else {
			codes[k] = 0
			recon[k] = data[k]
			ex = append(ex, data[k])
		}
	}
	for j := 1; j < d1; j++ {
		row := j * d2
		if c, rf := qz(data[row], float64(recon[row-d2]), twoEB, eb, radius); c >= 0 {
			codes[row] = c
			recon[row] = rf
		} else {
			codes[row] = 0
			recon[row] = data[row]
			ex = append(ex, data[row])
		}
		for idx := row + 1; idx < row+d2; idx++ {
			pred := float64(recon[idx-1]) + float64(recon[idx-d2]) - float64(recon[idx-d2-1])
			if c, rf := qz(data[idx], pred, twoEB, eb, radius); c >= 0 {
				codes[idx] = c
				recon[idx] = rf
			} else {
				codes[idx] = 0
				recon[idx] = data[idx]
				ex = append(ex, data[idx])
			}
		}
	}
	for i := 1; i < d0; i++ {
		base := i * sd
		// Row (i,0,*): neighbors exist only in k and the slice above.
		if c, rf := qz(data[base], float64(recon[base-sd]), twoEB, eb, radius); c >= 0 {
			codes[base] = c
			recon[base] = rf
		} else {
			codes[base] = 0
			recon[base] = data[base]
			ex = append(ex, data[base])
		}
		for idx := base + 1; idx < base+d2; idx++ {
			pred := float64(recon[idx-1]) + float64(recon[idx-sd]) - float64(recon[idx-sd-1])
			if c, rf := qz(data[idx], pred, twoEB, eb, radius); c >= 0 {
				codes[idx] = c
				recon[idx] = rf
			} else {
				codes[idx] = 0
				recon[idx] = data[idx]
				ex = append(ex, data[idx])
			}
		}
		for j := 1; j < d1; j++ {
			row := base + j*d2
			// Column (i,j,0): j and i neighbors only.
			pred := float64(recon[row-d2]) + float64(recon[row-sd]) - float64(recon[row-sd-d2])
			if c, rf := qz(data[row], pred, twoEB, eb, radius); c >= 0 {
				codes[row] = c
				recon[row] = rf
			} else {
				codes[row] = 0
				recon[row] = data[row]
				ex = append(ex, data[row])
			}
			// Interior: the full 7-term stencil, summed in pred3D's exact
			// left-to-right order.
			for idx := row + 1; idx < row+d2; idx++ {
				pred := float64(recon[idx-1]) + float64(recon[idx-d2]) + float64(recon[idx-sd]) -
					float64(recon[idx-d2-1]) - float64(recon[idx-sd-1]) - float64(recon[idx-sd-d2]) +
					float64(recon[idx-sd-d2-1])
				if c, rf := qz(data[idx], pred, twoEB, eb, radius); c >= 0 {
					codes[idx] = c
					recon[idx] = rf
				} else {
					codes[idx] = 0
					recon[idx] = data[idx]
					ex = append(ex, data[idx])
				}
			}
		}
	}
	*exact = ex
}

func reconstruct3D[F Float](recon []F, codes []int, nextExact func() (F, error),
	d0, d1, d2 int, twoEB float64, radius int, opts Options) error {
	if opts.PredictorOrder == 0 {
		return reconstruct1D(recon, codes, nextExact, twoEB, radius, opts)
	}
	sd := d1 * d2
	step := func(idx int, pred float64) error {
		if codes[idx] == 0 {
			v, err := nextExact()
			if err != nil {
				return err
			}
			recon[idx] = v
			return nil
		}
		recon[idx] = F(pred + float64(codes[idx]-radius)*twoEB)
		return nil
	}
	var pred float64
	for k := 0; k < d2; k++ {
		if k > 0 {
			pred = float64(recon[k-1])
		}
		if err := step(k, pred); err != nil {
			return err
		}
	}
	for j := 1; j < d1; j++ {
		row := j * d2
		if err := step(row, float64(recon[row-d2])); err != nil {
			return err
		}
		for idx := row + 1; idx < row+d2; idx++ {
			pred := float64(recon[idx-1]) + float64(recon[idx-d2]) - float64(recon[idx-d2-1])
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
			pred := float64(recon[idx-1]) + float64(recon[idx-sd]) - float64(recon[idx-sd-1])
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
				pred := float64(recon[idx-1]) + float64(recon[idx-d2]) + float64(recon[idx-sd]) -
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
