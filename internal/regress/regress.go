// Package regress fits the paper's non-linear power model
//
//	P_fit(f) = a*f^b + c                    (Eqn 2)
//
// to (frequency, power) observations, replacing the MATLAB Curve Fitting
// Toolbox step of Section IV. The fit is exact in (a, c) for a fixed
// exponent — the model is linear in those two parameters — so the solver
// scans a geometric grid over b with a closed-form linear solve at each
// point, then polishes the best seed with Levenberg–Marquardt. Grid seeding
// matters: the SSE surface in b is multi-modal on knee-shaped data (the
// Skylake fits in Table IV land near b = 23); a single heuristic start was
// the ablation baseline and lost (DESIGN.md section 5 keeps its numbers).
package regress

import (
	"errors"
	"fmt"
	"math"

	"lcpio/internal/stats"
)

// Exponent search bounds: generous around the paper's observed range
// (3.4 .. 23.3 across Tables IV and V).
const (
	minExponent = 0.2
	maxExponent = 40.0
	// gridPoints exponent seeds are scanned geometrically over the bounds;
	// lmIterations caps the polish.
	gridPoints   = 60
	lmIterations = 200
)

var (
	// ErrTooFewPoints is returned when there are fewer observations than
	// model parameters.
	ErrTooFewPoints = errors.New("regress: need at least 4 points to fit a*f^b + c")
	// ErrBadInput is returned for mismatched or non-finite inputs.
	ErrBadInput = errors.New("regress: invalid input data")
)

// PowerLawFit is a fitted P(f) = A*f^B + C model with its goodness of fit.
type PowerLawFit struct {
	A, B, C float64
	GF      stats.GoodnessOfFit
}

// Eval evaluates the model at frequency f.
func (p PowerLawFit) Eval(f float64) float64 {
	return p.A*math.Pow(f, p.B) + p.C
}

// String renders the fit in the paper's table style.
func (p PowerLawFit) String() string {
	return fmt.Sprintf("%.4gf^%.4g + %.4g", p.A, p.B, p.C)
}

// FitPowerLaw fits Eqn 2 to the observations.
func FitPowerLaw(fs, ps []float64) (PowerLawFit, error) {
	if len(fs) != len(ps) {
		return PowerLawFit{}, ErrBadInput
	}
	if len(fs) < 4 {
		return PowerLawFit{}, ErrTooFewPoints
	}
	for i := range fs {
		if !isFinite(fs[i]) || !isFinite(ps[i]) || fs[i] <= 0 {
			return PowerLawFit{}, ErrBadInput
		}
	}

	var bestA, bestB, bestC float64
	bestSSE := math.Inf(1)
	ratio := math.Pow(maxExponent/minExponent, 1/float64(gridPoints-1))
	for i, b := 0, minExponent; i < gridPoints; i, b = i+1, b*ratio {
		if a, c, ok := linearSolveAC(fs, ps, b); ok && isFinite(a) && isFinite(c) {
			if sse := sseFor(fs, ps, a, b, c); sse < bestSSE {
				bestSSE, bestA, bestB, bestC = sse, a, b, c
			}
		}
	}
	if math.IsInf(bestSSE, 1) {
		return PowerLawFit{}, ErrBadInput
	}

	a, b, c := levenbergMarquardt(fs, ps, bestA, bestB, bestC)
	if sseFor(fs, ps, a, b, c) > bestSSE {
		// Polish must never make things worse.
		a, b, c = bestA, bestB, bestC
	}

	pred := make([]float64, len(fs))
	for i, f := range fs {
		pred[i] = a*math.Pow(f, b) + c
	}
	gf, err := stats.Fit(ps, pred, 3)
	if err != nil {
		return PowerLawFit{}, err
	}
	return PowerLawFit{A: a, B: b, C: c, GF: gf}, nil
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func sseFor(fs, ps []float64, a, b, c float64) float64 {
	var sse float64
	for i := range fs {
		d := ps[i] - (a*math.Pow(fs[i], b) + c)
		sse += d * d
	}
	return sse
}

// linearSolveAC solves min_{a,c} sum (p - a*f^b - c)^2 in closed form: with
// g = f^b the model is ordinary least squares on (g, 1).
func linearSolveAC(fs, ps []float64, b float64) (a, c float64, ok bool) {
	n := float64(len(fs))
	var sg, sgg, sp, sgp float64
	for i := range fs {
		g := math.Pow(fs[i], b)
		if !isFinite(g) {
			return 0, 0, false
		}
		sg += g
		sgg += g * g
		sp += ps[i]
		sgp += g * ps[i]
	}
	det := n*sgg - sg*sg
	if math.Abs(det) < 1e-300 {
		return 0, 0, false
	}
	a = (n*sgp - sg*sp) / det
	c = (sp - a*sg) / n
	return a, c, true
}

func clampExp(b float64) float64 {
	if !isFinite(b) || b < minExponent {
		return minExponent
	}
	if b > maxExponent {
		return maxExponent
	}
	return b
}

// levenbergMarquardt polishes (a,b,c) on the full non-linear problem with
// an analytic Jacobian and damping adaptation.
func levenbergMarquardt(fs, ps []float64, a, b, c float64) (float64, float64, float64) {
	lambda := 1e-3
	sse := sseFor(fs, ps, a, b, c)
	for iter := 0; iter < lmIterations; iter++ {
		// Accumulate J^T J and J^T r. Residual r = p - model;
		// d/da = f^b, d/db = a*f^b*ln f, d/dc = 1.
		var jtj [3][3]float64
		var jtr [3]float64
		for i := range fs {
			fb := math.Pow(fs[i], b)
			lf := math.Log(fs[i])
			j0, j1, j2 := fb, a*fb*lf, 1.0
			r := ps[i] - (a*fb + c)
			row := [3]float64{j0, j1, j2}
			for x := 0; x < 3; x++ {
				for y := 0; y < 3; y++ {
					jtj[x][y] += row[x] * row[y]
				}
				jtr[x] += row[x] * r
			}
		}
		// Damped system (JtJ + lambda*diag(JtJ)) delta = Jtr.
		var m [3][4]float64
		for x := 0; x < 3; x++ {
			for y := 0; y < 3; y++ {
				m[x][y] = jtj[x][y]
			}
			m[x][x] += lambda * (jtj[x][x] + 1e-12)
			m[x][3] = jtr[x]
		}
		delta, ok := solve3(m)
		if !ok {
			lambda *= 10
			if lambda > 1e12 {
				break
			}
			continue
		}
		na, nb, nc := a+delta[0], clampExp(b+delta[1]), c+delta[2]
		nsse := sseFor(fs, ps, na, nb, nc)
		if isFinite(nsse) && nsse < sse {
			rel := (sse - nsse) / (sse + 1e-300)
			a, b, c, sse = na, nb, nc, nsse
			lambda = math.Max(lambda*0.3, 1e-12)
			if rel < 1e-12 {
				break
			}
		} else {
			lambda *= 10
			if lambda > 1e12 {
				break
			}
		}
	}
	return a, b, c
}

// solve3 performs Gaussian elimination with partial pivoting on a 3x4
// augmented system.
func solve3(m [3][4]float64) ([3]float64, bool) {
	for col := 0; col < 3; col++ {
		piv := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-300 {
			return [3]float64{}, false
		}
		m[col], m[piv] = m[piv], m[col]
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			k := m[r][col] / m[col][col]
			for cc := col; cc < 4; cc++ {
				m[r][cc] -= k * m[col][cc]
			}
		}
	}
	var out [3]float64
	for i := 0; i < 3; i++ {
		out[i] = m[i][3] / m[i][i]
	}
	return out, true
}
