package sz

import "math"

// Float constrains the element types both precisions of the codec accept.
type Float interface {
	~float32 | ~float64
}

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
func qz[F Float](val F, pred, twoEB, eb float64) (int, F) {
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

// --- 1-D ---------------------------------------------------------------------

// quantize1D is the fused previous-value kernel: the 1-D Lorenzo stencil.
func quantize1D[F Float](data, recon []F, codes []int, exact *[]F, twoEB, eb float64) {
	ex := *exact
	var pred float64
	for i, val := range data {
		if i > 0 {
			pred = float64(recon[i-1])
		}
		if c, rf := qz(val, pred, twoEB, eb); c >= 0 {
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

func reconstruct1D[F Float](recon []F, codes []int, nextExact func() (F, error), twoEB float64) error {
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

// quantize2D is the fused first-order 2-D Lorenzo kernel,
// f(i,j) ~ f(i,j-1) + f(i-1,j) - f(i-1,j-1), with the border cases hoisted
// out of the inner loop.
func quantize2D[F Float](data, recon []F, codes []int, exact *[]F, d1, d2 int, twoEB, eb float64) {
	ex := *exact
	// Row 0 warms up with the previous-value predictor (pred2D's j>0 case).
	var pred float64
	for j := 0; j < d2; j++ {
		if j > 0 {
			pred = float64(recon[j-1])
		}
		if c, rf := qz(data[j], pred, twoEB, eb); c >= 0 {
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
		if c, rf := qz(data[row], float64(recon[row-d2]), twoEB, eb); c >= 0 {
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
			if c, rf := qz(data[idx], pred, twoEB, eb); c >= 0 {
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

func reconstruct2D[F Float](recon []F, codes []int, nextExact func() (F, error), d1, d2 int, twoEB float64) error {
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

// quantize3D is the fused first-order 3-D Lorenzo kernel: the inclusion–
// exclusion sum over the 7 previously-seen corners of the unit cube at
// (i,j,k), degrading to 2-D/1-D stencils on the boundary faces and edges.
func quantize3D[F Float](data, recon []F, codes []int, exact *[]F, d0, d1, d2 int, twoEB, eb float64) {
	ex := *exact
	// Slice 0 follows the 2-D stencil: pred3D with i=0 degenerates to
	// pred2D over (j,k) exactly.
	sd := d1 * d2 // slice stride
	var pred float64
	for k := 0; k < d2; k++ {
		if k > 0 {
			pred = float64(recon[k-1])
		}
		if c, rf := qz(data[k], pred, twoEB, eb); c >= 0 {
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
		if c, rf := qz(data[row], float64(recon[row-d2]), twoEB, eb); c >= 0 {
			codes[row] = c
			recon[row] = rf
		} else {
			codes[row] = 0
			recon[row] = data[row]
			ex = append(ex, data[row])
		}
		for idx := row + 1; idx < row+d2; idx++ {
			pred := float64(recon[idx-1]) + float64(recon[idx-d2]) - float64(recon[idx-d2-1])
			if c, rf := qz(data[idx], pred, twoEB, eb); c >= 0 {
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
		if c, rf := qz(data[base], float64(recon[base-sd]), twoEB, eb); c >= 0 {
			codes[base] = c
			recon[base] = rf
		} else {
			codes[base] = 0
			recon[base] = data[base]
			ex = append(ex, data[base])
		}
		for idx := base + 1; idx < base+d2; idx++ {
			pred := float64(recon[idx-1]) + float64(recon[idx-sd]) - float64(recon[idx-sd-1])
			if c, rf := qz(data[idx], pred, twoEB, eb); c >= 0 {
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
			if c, rf := qz(data[row], pred, twoEB, eb); c >= 0 {
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
				if c, rf := qz(data[idx], pred, twoEB, eb); c >= 0 {
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

func reconstruct3D[F Float](recon []F, codes []int, nextExact func() (F, error), d0, d1, d2 int, twoEB float64) error {
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
