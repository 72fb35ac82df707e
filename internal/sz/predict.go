package sz

import (
	"math"

	"lcpio/internal/huffman"
)

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

// dq is the step qz inverts, for the decode kernels below: the
// reconstruction of code s under prediction pred — float64(s-radius) is the
// quotient qz floored, so this is the value qz stored — or for code 0 the
// next verbatim value, exact[ei]. ei counts the code-0 symbols seen; it runs
// past len(exact) on a stream that stores too few values, where the missing
// ones read as 0 and the caller refuses the partition for the count.
func dq(s int, pred, twoEB float64, exact []float32, ei int) (float32, int) {
	if s != 0 {
		return float32(pred + float64(s-radius)*twoEB), ei
	}
	var v float32
	if ei < len(exact) {
		v = exact[ei]
	}
	return v, ei + 1
}

// keep stores one element's outcome at idx — qz's code and reconstruction,
// or for a negative code the value itself, appended to the verbatim list —
// and returns the reconstruction the next element is predicted from: the
// quantize kernels' loop body after the qz call, small enough to inline.
func keep(c int, rf float32, r float64, val float32, codes []int, recon []float32, ex *[]float32, idx int) float64 {
	if c >= 0 {
		codes[idx], recon[idx] = c, rf
		return r
	}
	codes[idx], recon[idx] = 0, val
	*ex = append(*ex, val)
	return float64(val)
}

// quantize3D is the fused first-order 3-D Lorenzo kernel: the inclusion–
// exclusion sum over the 7 previously-seen corners of the unit cube at
// (i,j,k), degrading to 2-D/1-D stencils on the boundary faces and edges.
// It is the one single-partition kernel: at d0 = 1 it is the 2-D kernel
// f(i,j) ~ f(i,j-1) + f(i-1,j) - f(i-1,j-1) term for term, and at
// d0 = d1 = 1 the 1-D previous-value kernel, so 1-D and 2-D partitions run it
// as degenerate 3-D ones, as refQuantize does.
//
// Like quantize3Dx2 below it carries the element just reconstructed in a
// local (left) instead of reloading recon[idx-1], which it stored one
// iteration earlier: the store-to-load hop was on the chain from one
// element's reconstruction to the next one's prediction.
func quantize3D(data, recon []float32, codes []int, exact *[]float32, d0, d1, d2 int, twoEB, eb float64) {
	ex := *exact
	// Slice 0 follows the 2-D stencil: pred3D with i=0 degenerates to
	// pred2D over (j,k) exactly.
	sd := d1 * d2 // slice stride
	var left float64
	for k := 0; k < d2; k++ {
		c, rf, r := qz(data[k], left, twoEB, eb)
		left = keep(c, rf, r, data[k], codes, recon, &ex, k)
	}
	for j := 1; j < d1; j++ {
		row := j * d2
		c, rf, r := qz(data[row], float64(recon[row-d2]), twoEB, eb)
		left = keep(c, rf, r, data[row], codes, recon, &ex, row)
		for idx := row + 1; idx < row+d2; idx++ {
			pred := left + float64(recon[idx-d2]) - float64(recon[idx-d2-1])
			c, rf, r := qz(data[idx], pred, twoEB, eb)
			left = keep(c, rf, r, data[idx], codes, recon, &ex, idx)
		}
	}
	for i := 1; i < d0; i++ {
		base := i * sd
		// Row (i,0,*): neighbors exist only in k and the slice above.
		c, rf, r := qz(data[base], float64(recon[base-sd]), twoEB, eb)
		left = keep(c, rf, r, data[base], codes, recon, &ex, base)
		for idx := base + 1; idx < base+d2; idx++ {
			pred := left + float64(recon[idx-sd]) - float64(recon[idx-sd-1])
			c, rf, r := qz(data[idx], pred, twoEB, eb)
			left = keep(c, rf, r, data[idx], codes, recon, &ex, idx)
		}
		for j := 1; j < d1; j++ {
			row := base + j*d2
			// Column (i,j,0): j and i neighbors only.
			pred := float64(recon[row-d2]) + float64(recon[row-sd]) - float64(recon[row-sd-d2])
			c, rf, r := qz(data[row], pred, twoEB, eb)
			left = keep(c, rf, r, data[row], codes, recon, &ex, row)
			// Interior: the full 7-term stencil, summed in pred3D's exact
			// left-to-right order.
			for idx := row + 1; idx < row+d2; idx++ {
				pred := left + float64(recon[idx-d2]) + float64(recon[idx-sd]) -
					float64(recon[idx-d2-1]) - float64(recon[idx-sd-1]) - float64(recon[idx-sd-d2]) +
					float64(recon[idx-sd-d2-1])
				c, rf, r := qz(data[idx], pred, twoEB, eb)
				left = keep(c, rf, r, data[idx], codes, recon, &ex, idx)
			}
		}
	}
	*exact = ex
}

// quantize3Dx2 is quantize3D over two partitions of one shape in lockstep:
// side a (da into ra, ca, xa) and side b, each with its own left and its own
// verbatim list in raster order. Every element is predicted from the same
// stencil terms summed in the same order and quantized by the same qz, so each
// side comes out bit for bit as a quantize3D call would leave it. The two
// reconstruction chains never meet, so the core overlaps them: one side's
// divide and floor issue while the other's wait.
func quantize3Dx2(da, db, ra, rb []float32, ca, cb []int, xa, xb *[]float32, d0, d1, d2 int, twoEB, eb float64) {
	exA, exB := *xa, *xb
	sd := d1 * d2
	var la, lb float64
	for k := 0; k < d2; k++ {
		c, rf, r := qz(da[k], la, twoEB, eb)
		la = keep(c, rf, r, da[k], ca, ra, &exA, k)
		c, rf, r = qz(db[k], lb, twoEB, eb)
		lb = keep(c, rf, r, db[k], cb, rb, &exB, k)
	}
	for j := 1; j < d1; j++ {
		row := j * d2
		c, rf, r := qz(da[row], float64(ra[row-d2]), twoEB, eb)
		la = keep(c, rf, r, da[row], ca, ra, &exA, row)
		c, rf, r = qz(db[row], float64(rb[row-d2]), twoEB, eb)
		lb = keep(c, rf, r, db[row], cb, rb, &exB, row)
		for idx := row + 1; idx < row+d2; idx++ {
			pa := la + float64(ra[idx-d2]) - float64(ra[idx-d2-1])
			pb := lb + float64(rb[idx-d2]) - float64(rb[idx-d2-1])
			c, rf, r := qz(da[idx], pa, twoEB, eb)
			la = keep(c, rf, r, da[idx], ca, ra, &exA, idx)
			c, rf, r = qz(db[idx], pb, twoEB, eb)
			lb = keep(c, rf, r, db[idx], cb, rb, &exB, idx)
		}
	}
	for i := 1; i < d0; i++ {
		base := i * sd
		c, rf, r := qz(da[base], float64(ra[base-sd]), twoEB, eb)
		la = keep(c, rf, r, da[base], ca, ra, &exA, base)
		c, rf, r = qz(db[base], float64(rb[base-sd]), twoEB, eb)
		lb = keep(c, rf, r, db[base], cb, rb, &exB, base)
		for idx := base + 1; idx < base+d2; idx++ {
			pa := la + float64(ra[idx-sd]) - float64(ra[idx-sd-1])
			pb := lb + float64(rb[idx-sd]) - float64(rb[idx-sd-1])
			c, rf, r := qz(da[idx], pa, twoEB, eb)
			la = keep(c, rf, r, da[idx], ca, ra, &exA, idx)
			c, rf, r = qz(db[idx], pb, twoEB, eb)
			lb = keep(c, rf, r, db[idx], cb, rb, &exB, idx)
		}
		for j := 1; j < d1; j++ {
			row := base + j*d2
			pa := float64(ra[row-d2]) + float64(ra[row-sd]) - float64(ra[row-sd-d2])
			pb := float64(rb[row-d2]) + float64(rb[row-sd]) - float64(rb[row-sd-d2])
			c, rf, r := qz(da[row], pa, twoEB, eb)
			la = keep(c, rf, r, da[row], ca, ra, &exA, row)
			c, rf, r = qz(db[row], pb, twoEB, eb)
			lb = keep(c, rf, r, db[row], cb, rb, &exB, row)
			for idx := row + 1; idx < row+d2; idx++ {
				pa := la + float64(ra[idx-d2]) + float64(ra[idx-sd]) -
					float64(ra[idx-d2-1]) - float64(ra[idx-sd-1]) - float64(ra[idx-sd-d2]) +
					float64(ra[idx-sd-d2-1])
				pb := lb + float64(rb[idx-d2]) + float64(rb[idx-sd]) -
					float64(rb[idx-d2-1]) - float64(rb[idx-sd-1]) - float64(rb[idx-sd-d2]) +
					float64(rb[idx-sd-d2-1])
				c, rf, r := qz(da[idx], pa, twoEB, eb)
				la = keep(c, rf, r, da[idx], ca, ra, &exA, idx)
				c, rf, r = qz(db[idx], pb, twoEB, eb)
				lb = keep(c, rf, r, db[idx], cb, rb, &exB, idx)
			}
		}
	}
	*xa, *xb = exA, exB
}

// decode3D runs quantize3D backwards in one pass, at every rank (a 1-D or
// 2-D partition is d0 = d1 = 1 or d0 = 1): every element pulls its symbol
// from the Huffman decoder — the bit window in locals, Resolve out of line —
// and is reconstructed at once, from the same stencil terms summed in the
// same order as quantize3D, so the output bits are the ones it
// reconstructed. It returns the code-0 symbols it met and the decoder's
// error, if any; on an error the symbols read -1 from there on and the
// values are garbage the caller discards.
func decode3D(recon []float32, d *huffman.Decoder, exact []float32, d0, d1, d2 int, twoEB float64) (int, error) {
	sd := d1 * d2
	cur, nc := d.Window()
	var left float64
	var s, ei int
	var rf float32
	for k := 0; k < d2; k++ {
		if s, cur, nc = d.Next(cur, nc); s < 0 {
			s, cur, nc = d.Resolve(cur, nc)
		}
		rf, ei = dq(s, left, twoEB, exact, ei)
		recon[k], left = rf, float64(rf)
	}
	for j := 1; j < d1; j++ {
		row := j * d2
		if s, cur, nc = d.Next(cur, nc); s < 0 {
			s, cur, nc = d.Resolve(cur, nc)
		}
		rf, ei = dq(s, float64(recon[row-d2]), twoEB, exact, ei)
		recon[row], left = rf, float64(rf)
		for idx := row + 1; idx < row+d2; idx++ {
			pred := left + float64(recon[idx-d2]) - float64(recon[idx-d2-1])
			if s, cur, nc = d.Next(cur, nc); s < 0 {
				s, cur, nc = d.Resolve(cur, nc)
			}
			rf, ei = dq(s, pred, twoEB, exact, ei)
			recon[idx], left = rf, float64(rf)
		}
	}
	for i := 1; i < d0; i++ {
		base := i * sd
		if s, cur, nc = d.Next(cur, nc); s < 0 {
			s, cur, nc = d.Resolve(cur, nc)
		}
		rf, ei = dq(s, float64(recon[base-sd]), twoEB, exact, ei)
		recon[base], left = rf, float64(rf)
		for idx := base + 1; idx < base+d2; idx++ {
			pred := left + float64(recon[idx-sd]) - float64(recon[idx-sd-1])
			if s, cur, nc = d.Next(cur, nc); s < 0 {
				s, cur, nc = d.Resolve(cur, nc)
			}
			rf, ei = dq(s, pred, twoEB, exact, ei)
			recon[idx], left = rf, float64(rf)
		}
		for j := 1; j < d1; j++ {
			row := base + j*d2
			pred := float64(recon[row-d2]) + float64(recon[row-sd]) - float64(recon[row-sd-d2])
			if s, cur, nc = d.Next(cur, nc); s < 0 {
				s, cur, nc = d.Resolve(cur, nc)
			}
			rf, ei = dq(s, pred, twoEB, exact, ei)
			recon[row], left = rf, float64(rf)
			for idx := row + 1; idx < row+d2; idx++ {
				pred := left + float64(recon[idx-d2]) + float64(recon[idx-sd]) -
					float64(recon[idx-d2-1]) - float64(recon[idx-sd-1]) - float64(recon[idx-sd-d2]) +
					float64(recon[idx-sd-d2-1])
				if s, cur, nc = d.Next(cur, nc); s < 0 {
					s, cur, nc = d.Resolve(cur, nc)
				}
				rf, ei = dq(s, pred, twoEB, exact, ei)
				recon[idx], left = rf, float64(rf)
			}
		}
	}
	return ei, d.Finish(cur, nc)
}

// decode3Dx2 is decode3D over two partitions of one shape in lockstep: side a
// (ra, from da and xa) and side b, each with its own bit window, its own
// left and its own count of code-0 symbols. Every element is reconstructed
// by the same dq from the same stencil terms summed in the same order, so
// each side comes out bit for bit — values, count and error — as a decode3D
// call would leave it. The two reconstruction chains never meet, so the core
// overlaps them, as quantize3Dx2 does on the encode side.
func decode3Dx2(ra, rb []float32, da, db *huffman.Decoder, xa, xb []float32, d0, d1, d2 int, twoEB float64) (ua, ub int, errA, errB error) {
	sd := d1 * d2
	ca, na := da.Window()
	cb, nb := db.Window()
	var la, lb float64
	var sa, sb, ea, eb int
	var fa, fb float32
	for k := 0; k < d2; k++ {
		if sa, ca, na = da.Next(ca, na); sa < 0 {
			sa, ca, na = da.Resolve(ca, na)
		}
		if sb, cb, nb = db.Next(cb, nb); sb < 0 {
			sb, cb, nb = db.Resolve(cb, nb)
		}
		fa, ea = dq(sa, la, twoEB, xa, ea)
		fb, eb = dq(sb, lb, twoEB, xb, eb)
		ra[k], la = fa, float64(fa)
		rb[k], lb = fb, float64(fb)
	}
	for j := 1; j < d1; j++ {
		row := j * d2
		if sa, ca, na = da.Next(ca, na); sa < 0 {
			sa, ca, na = da.Resolve(ca, na)
		}
		if sb, cb, nb = db.Next(cb, nb); sb < 0 {
			sb, cb, nb = db.Resolve(cb, nb)
		}
		fa, ea = dq(sa, float64(ra[row-d2]), twoEB, xa, ea)
		fb, eb = dq(sb, float64(rb[row-d2]), twoEB, xb, eb)
		ra[row], la = fa, float64(fa)
		rb[row], lb = fb, float64(fb)
		for idx := row + 1; idx < row+d2; idx++ {
			pa := la + float64(ra[idx-d2]) - float64(ra[idx-d2-1])
			pb := lb + float64(rb[idx-d2]) - float64(rb[idx-d2-1])
			if sa, ca, na = da.Next(ca, na); sa < 0 {
				sa, ca, na = da.Resolve(ca, na)
			}
			if sb, cb, nb = db.Next(cb, nb); sb < 0 {
				sb, cb, nb = db.Resolve(cb, nb)
			}
			fa, ea = dq(sa, pa, twoEB, xa, ea)
			fb, eb = dq(sb, pb, twoEB, xb, eb)
			ra[idx], la = fa, float64(fa)
			rb[idx], lb = fb, float64(fb)
		}
	}
	for i := 1; i < d0; i++ {
		base := i * sd
		if sa, ca, na = da.Next(ca, na); sa < 0 {
			sa, ca, na = da.Resolve(ca, na)
		}
		if sb, cb, nb = db.Next(cb, nb); sb < 0 {
			sb, cb, nb = db.Resolve(cb, nb)
		}
		fa, ea = dq(sa, float64(ra[base-sd]), twoEB, xa, ea)
		fb, eb = dq(sb, float64(rb[base-sd]), twoEB, xb, eb)
		ra[base], la = fa, float64(fa)
		rb[base], lb = fb, float64(fb)
		for idx := base + 1; idx < base+d2; idx++ {
			pa := la + float64(ra[idx-sd]) - float64(ra[idx-sd-1])
			pb := lb + float64(rb[idx-sd]) - float64(rb[idx-sd-1])
			if sa, ca, na = da.Next(ca, na); sa < 0 {
				sa, ca, na = da.Resolve(ca, na)
			}
			if sb, cb, nb = db.Next(cb, nb); sb < 0 {
				sb, cb, nb = db.Resolve(cb, nb)
			}
			fa, ea = dq(sa, pa, twoEB, xa, ea)
			fb, eb = dq(sb, pb, twoEB, xb, eb)
			ra[idx], la = fa, float64(fa)
			rb[idx], lb = fb, float64(fb)
		}
		for j := 1; j < d1; j++ {
			row := base + j*d2
			pa := float64(ra[row-d2]) + float64(ra[row-sd]) - float64(ra[row-sd-d2])
			pb := float64(rb[row-d2]) + float64(rb[row-sd]) - float64(rb[row-sd-d2])
			if sa, ca, na = da.Next(ca, na); sa < 0 {
				sa, ca, na = da.Resolve(ca, na)
			}
			if sb, cb, nb = db.Next(cb, nb); sb < 0 {
				sb, cb, nb = db.Resolve(cb, nb)
			}
			fa, ea = dq(sa, pa, twoEB, xa, ea)
			fb, eb = dq(sb, pb, twoEB, xb, eb)
			ra[row], la = fa, float64(fa)
			rb[row], lb = fb, float64(fb)
			for idx := row + 1; idx < row+d2; idx++ {
				pa := la + float64(ra[idx-d2]) + float64(ra[idx-sd]) -
					float64(ra[idx-d2-1]) - float64(ra[idx-sd-1]) - float64(ra[idx-sd-d2]) +
					float64(ra[idx-sd-d2-1])
				pb := lb + float64(rb[idx-d2]) + float64(rb[idx-sd]) -
					float64(rb[idx-d2-1]) - float64(rb[idx-sd-1]) - float64(rb[idx-sd-d2]) +
					float64(rb[idx-sd-d2-1])
				if sa, ca, na = da.Next(ca, na); sa < 0 {
					sa, ca, na = da.Resolve(ca, na)
				}
				if sb, cb, nb = db.Next(cb, nb); sb < 0 {
					sb, cb, nb = db.Resolve(cb, nb)
				}
				fa, ea = dq(sa, pa, twoEB, xa, ea)
				fb, eb = dq(sb, pb, twoEB, xb, eb)
				ra[idx], la = fa, float64(fa)
				rb[idx], lb = fb, float64(fb)
			}
		}
	}
	return ea, eb, da.Finish(ca, na), db.Finish(cb, nb)
}
