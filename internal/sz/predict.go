package sz

import "math"

// qz is the fused quantize step, small enough for the compiler to inline into
// the kernel loops below (Floor and Abs are intrinsics): floor(diff/twoEB +
// 0.5), reconstruct pred + q*twoEB, verify |recon-val| <= eb. Codes are
// centered at radius; code 0 is reserved for unpredictable values, which qz
// reports as a negative code and the caller stores verbatim. Both guards are
// accept-conditions, so NaN (from non-finite input values, or predictions
// contaminated by verbatim-stored non-finite neighbors) fails them and falls
// through to the unpredictable path instead of producing a garbage code. The
// element-at-a-time reference (quantizeOne, pred2D, pred3D) lives in
// predict_test.go, which holds the kernels to it.
//
// The reconstruction is the loop-carried value of every kernel — element i+1
// is predicted from it — so nothing that can wait sits on its path: it is
// formed from the floored quotient as it stands (float64(int(qf)) == qf for
// every integral qf the range guard admits, and qf is never -0: a sum with
// +0.5 is -0 for no operand), the conversion to int happens off the chain,
// for the code alone, and the float64 the bound was checked on is returned
// beside the float32 value so the kernel does not convert it again.
func qz(val float32, pred, twoEB, eb float64) (code int, rf float32, r float64) {
	qf := math.Floor((float64(val)-pred)/twoEB + 0.5)
	if qf > float64(-radius) && qf < float64(radius) {
		rf = float32(pred + qf*twoEB)
		r = float64(rf)
		if math.Abs(r-float64(val)) <= eb {
			return int(qf) + radius, rf, r
		}
	}
	return -1, 0, 0
}

// --- 1-D ---------------------------------------------------------------------

// quantize1D is the fused previous-value kernel: the 1-D Lorenzo stencil.
// Like every kernel below it carries the element just reconstructed in a
// local (left) instead of reloading recon[idx-1], which it stored one
// iteration earlier: the store-to-load hop was on the chain from one
// element's reconstruction to the next one's prediction.
func quantize1D(data, recon []float32, codes []int, exact *[]float32, twoEB, eb float64) {
	ex := *exact
	var left float64
	for i, val := range data {
		if c, rf, r := qz(val, left, twoEB, eb); c >= 0 {
			codes[i] = c
			recon[i] = rf
			left = r
		} else {
			codes[i] = 0
			recon[i] = val
			ex = append(ex, val)
			left = float64(val)
		}
	}
	*exact = ex
}

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

// --- 2-D ---------------------------------------------------------------------

// quantize2D is the fused first-order 2-D Lorenzo kernel,
// f(i,j) ~ f(i,j-1) + f(i-1,j) - f(i-1,j-1), with the border cases hoisted
// out of the inner loop.
func quantize2D(data, recon []float32, codes []int, exact *[]float32, d1, d2 int, twoEB, eb float64) {
	ex := *exact
	// Row 0 warms up with the previous-value predictor (pred2D's j>0 case).
	var left float64
	for j := 0; j < d2; j++ {
		if c, rf, r := qz(data[j], left, twoEB, eb); c >= 0 {
			codes[j] = c
			recon[j] = rf
			left = r
		} else {
			codes[j] = 0
			recon[j] = data[j]
			ex = append(ex, data[j])
			left = float64(data[j])
		}
	}
	for i := 1; i < d1; i++ {
		row := i * d2
		// Column 0: only the neighbor above exists.
		if c, rf, r := qz(data[row], float64(recon[row-d2]), twoEB, eb); c >= 0 {
			codes[row] = c
			recon[row] = rf
			left = r
		} else {
			codes[row] = 0
			recon[row] = data[row]
			ex = append(ex, data[row])
			left = float64(data[row])
		}
		// Interior: full stencil, evaluated left-to-right exactly as pred2D
		// does so the float64 rounding matches term for term.
		for idx := row + 1; idx < row+d2; idx++ {
			pred := left + float64(recon[idx-d2]) - float64(recon[idx-d2-1])
			if c, rf, r := qz(data[idx], pred, twoEB, eb); c >= 0 {
				codes[idx] = c
				recon[idx] = rf
				left = r
			} else {
				codes[idx] = 0
				recon[idx] = data[idx]
				ex = append(ex, data[idx])
				left = float64(data[idx])
			}
		}
	}
	*exact = ex
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

// --- 3-D ---------------------------------------------------------------------

// quantize3D is the fused first-order 3-D Lorenzo kernel: the inclusion–
// exclusion sum over the 7 previously-seen corners of the unit cube at
// (i,j,k), degrading to 2-D/1-D stencils on the boundary faces and edges.
func quantize3D(data, recon []float32, codes []int, exact *[]float32, d0, d1, d2 int, twoEB, eb float64) {
	ex := *exact
	// Slice 0 follows the 2-D stencil: pred3D with i=0 degenerates to
	// pred2D over (j,k) exactly.
	sd := d1 * d2 // slice stride
	var left float64
	for k := 0; k < d2; k++ {
		if c, rf, r := qz(data[k], left, twoEB, eb); c >= 0 {
			codes[k] = c
			recon[k] = rf
			left = r
		} else {
			codes[k] = 0
			recon[k] = data[k]
			ex = append(ex, data[k])
			left = float64(data[k])
		}
	}
	for j := 1; j < d1; j++ {
		row := j * d2
		if c, rf, r := qz(data[row], float64(recon[row-d2]), twoEB, eb); c >= 0 {
			codes[row] = c
			recon[row] = rf
			left = r
		} else {
			codes[row] = 0
			recon[row] = data[row]
			ex = append(ex, data[row])
			left = float64(data[row])
		}
		for idx := row + 1; idx < row+d2; idx++ {
			pred := left + float64(recon[idx-d2]) - float64(recon[idx-d2-1])
			if c, rf, r := qz(data[idx], pred, twoEB, eb); c >= 0 {
				codes[idx] = c
				recon[idx] = rf
				left = r
			} else {
				codes[idx] = 0
				recon[idx] = data[idx]
				ex = append(ex, data[idx])
				left = float64(data[idx])
			}
		}
	}
	for i := 1; i < d0; i++ {
		base := i * sd
		// Row (i,0,*): neighbors exist only in k and the slice above.
		if c, rf, r := qz(data[base], float64(recon[base-sd]), twoEB, eb); c >= 0 {
			codes[base] = c
			recon[base] = rf
			left = r
		} else {
			codes[base] = 0
			recon[base] = data[base]
			ex = append(ex, data[base])
			left = float64(data[base])
		}
		for idx := base + 1; idx < base+d2; idx++ {
			pred := left + float64(recon[idx-sd]) - float64(recon[idx-sd-1])
			if c, rf, r := qz(data[idx], pred, twoEB, eb); c >= 0 {
				codes[idx] = c
				recon[idx] = rf
				left = r
			} else {
				codes[idx] = 0
				recon[idx] = data[idx]
				ex = append(ex, data[idx])
				left = float64(data[idx])
			}
		}
		for j := 1; j < d1; j++ {
			row := base + j*d2
			// Column (i,j,0): j and i neighbors only.
			pred := float64(recon[row-d2]) + float64(recon[row-sd]) - float64(recon[row-sd-d2])
			if c, rf, r := qz(data[row], pred, twoEB, eb); c >= 0 {
				codes[row] = c
				recon[row] = rf
				left = r
			} else {
				codes[row] = 0
				recon[row] = data[row]
				ex = append(ex, data[row])
				left = float64(data[row])
			}
			// Interior: the full 7-term stencil, summed in pred3D's exact
			// left-to-right order.
			for idx := row + 1; idx < row+d2; idx++ {
				pred := left + float64(recon[idx-d2]) + float64(recon[idx-sd]) -
					float64(recon[idx-d2-1]) - float64(recon[idx-sd-1]) - float64(recon[idx-sd-d2]) +
					float64(recon[idx-sd-d2-1])
				if c, rf, r := qz(data[idx], pred, twoEB, eb); c >= 0 {
					codes[idx] = c
					recon[idx] = rf
					left = r
				} else {
					codes[idx] = 0
					recon[idx] = data[idx]
					ex = append(ex, data[idx])
					left = float64(data[idx])
				}
			}
		}
	}
	*exact = ex
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
