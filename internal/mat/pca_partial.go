package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
)

// FitPCAPartial computes the top-m principal components of X without an
// eigendecomposition of the p x p covariance — the large-p path of the
// subspace method.
//
// The full FitPCA runs a Jacobi eigendecomposition of the covariance, which
// is O(p³) per sweep: fine at Abilene's p = 121, hopeless at the p = 10⁴⁺
// OD-matrix widths of the synthetic scale-sweep topologies. The subspace
// method only ever consumes the top k ≈ 4 axes plus the residual spectrum
// moments, so for large p this fit runs deterministic block subspace
// iteration on the symmetric operator S = XcᵀXc = (n-1)·C of the centered
// data:
//
//	Z = S Q            (p x b, kept row-wise as Zt)
//	B = Qᵀ Z / (n-1)   (b x b Ritz matrix: eigenvalue estimates, stop test)
//	Q = orth(Z)
//
// ending with the Rayleigh–Ritz rotation of the converged basis. One sweep
// body serves two ways of applying S, chosen by which operand is smaller:
//
//   - p > n (the wide synthetic topologies this path was written for):
//     S Q = Xcᵀ(Xc Q), two passes over the n x p window per sweep,
//     O(n·p·b), and no p x p matrix is ever formed;
//   - p ≤ n (a geant week: 529 flows, 2016 bins): the Gram matrix
//     G = XcᵀXc is formed once — p² ≤ n·p floats, no larger than the clone
//     of X the fit makes anyway — and every sweep is G·Q, O(p²·b) on a
//     matrix that stays in cache. OD traffic is low-rank plus a flat noise
//     floor, on which the trailing wanted pairs converge slowly (15-35
//     sweeps), so G's one-off O(n·p²/2), the price of p/(4b) ≈ 6 data-form
//     sweeps, is repaid several times over. A cold start forms G at once;
//     a warm start, which may be done in two sweeps, forms it only after
//     that many data-form sweeps have not converged.
//
// The returned PCA has Components p x m and Eigenvalues of length m, plus
// the exact covariance trace in TotalVar so threshold computations can
// account for the uncomputed tail variance, and the sweep count with
// whether the stop test was met. The iteration start point is a fixed-seed
// PCG draw, so the fit is reproducible for a given (n, p, m).
func FitPCAPartial(X *Matrix, m int, center bool) (*PCA, error) {
	return FitPCAPartialWarm(X, m, center, nil)
}

// FitPCAPartialWarm is FitPCAPartial with a warm start: warm, when non-nil,
// is a p x mw components matrix from a previous fit (columns = principal
// axes) that seeds the subspace iteration in place of the random draw. On
// the window the basis was fitted to, or one barely different, the
// iteration starts at its fixed point and stops after two or three sweeps.
// A nightly refit of real traffic — a day slid out of the window — is not
// that case: the leading axes carry over, the trailing noise-floor ones
// the stop test also waits for do not, and the sweep count is close to a
// cold fit's. So a warm start with p ≤ n begins in the data form and
// switches to the Gram form once it has spent what G costs (see sOperator).
// Extra block directions beyond mw are still drawn from the fixed-seed rng,
// so the fit remains deterministic for a given (X, m, warm).
func FitPCAPartialWarm(X *Matrix, m int, center bool, warm *Matrix) (*PCA, error) {
	n, p := X.Rows(), X.Cols()
	if n < 2 {
		return nil, errors.New("mat: FitPCAPartial needs at least 2 rows")
	}
	if m < 1 || m > p {
		return nil, fmt.Errorf("mat: FitPCAPartial m=%d out of [1,%d]", m, p)
	}
	if m > n-1 {
		// Beyond n-1 the covariance has no more nonzero directions.
		m = n - 1
	}
	work := X.Clone()
	var mean []float64
	if center {
		mean = work.CenterColumns()
	} else {
		mean = make([]float64, p)
	}
	inv := 1 / float64(n-1)
	var total float64
	for _, v := range work.data {
		total += v * v
	}
	total *= inv

	// Oversampled block: a few spare directions speed convergence of the
	// trailing wanted eigenpairs.
	b := m + 8
	if b > p {
		b = p
	}
	if b > n-1 {
		b = n - 1
	}
	if b < m {
		m = b
	}

	// Qt holds the basis row-wise (b x p) so orthonormalization and the
	// product kernels stream contiguous memory.
	rng := rand.New(rand.NewPCG(0x5CA1AB1E, uint64(p)<<20^uint64(n)))
	qt := New(b, p)
	seeded := 0
	if warm != nil && warm.Rows() == p {
		// Row i of Qt starts as axis i of the previous basis.
		mw := warm.Cols()
		if mw > b {
			mw = b
		}
		for i := 0; i < mw; i++ {
			row := qt.data[i*p : (i+1)*p]
			for j := range row {
				row[j] = warm.data[j*warm.cols+i]
			}
		}
		seeded = mw
	}
	for i := seeded * p; i < len(qt.data); i++ {
		qt.data[i] = rng.NormFloat64()
	}
	orthonormalizeRows(qt, rng)

	// G costs n·p²/2 multiply-adds, a data-form sweep 2·n·p·b: p/(4b)
	// sweeps buy G. A cold start runs several times that many, so it forms
	// G at once; a warm start may be done in two, so it pays for G only
	// after spending G's price on data-form sweeps without converging.
	gramAfter := -1
	if p <= n {
		gramAfter = 0
		if seeded > 0 {
			gramAfter = (p + 4*b - 1) / (4 * b)
		}
	}
	vals, qt, sweeps, met, err := subspaceIterate(sOperator(work, gramAfter), qt, m, inv, rng)
	if err != nil {
		return nil, err
	}

	comps := New(p, m)
	eig := make([]float64, m)
	for i := 0; i < m; i++ {
		if v := vals[i]; v > 0 {
			eig[i] = v
		}
		row := qt.data[i*p : (i+1)*p]
		for j, v := range row {
			comps.data[j*m+i] = v
		}
	}
	return &PCA{
		Mean:        mean,
		Eigenvalues: eig,
		Components:  comps,
		TotalVar:    total,
		Sweeps:      sweeps,
		Unconverged: !met,
		n:           n,
		vars:        p,
	}, nil
}

// sOperator returns the map Qt -> (S·Q)ᵀ for S = XcᵀXc. It applies S as
// (Xcᵀ(Xc·Q))ᵀ — two passes over the n x p data, nothing p x p — for its
// first gramAfter calls, then forms G = XcᵀXc once and applies S as Qt·G
// from there on; gramAfter < 0 never forms G.
func sOperator(xc *Matrix, gramAfter int) func(qt *Matrix) *Matrix {
	var g *Matrix
	calls := 0
	return func(qt *Matrix) *Matrix {
		if g == nil && calls == gramAfter {
			g = xc.Gram()
		}
		calls++
		if g != nil {
			return MulABt(qt, g)
		}
		return MulAtB(MulABt(xc, qt), xc)
	}
}

// subspaceIterate runs block subspace iteration on the symmetric operator
// applyS (which maps a row-wise basis Qt to (S·Q)ᵀ) from the orthonormal
// start qt until the top-m Ritz values of S·scale settle, and returns all
// b Ritz values, the basis rotated to the Ritz vectors (row i = axis i),
// the number of sweeps run and whether the stop test was met within the
// sweep cap.
func subspaceIterate(applyS func(qt *Matrix) *Matrix, qt *Matrix, m int, scale float64, rng *rand.Rand) (vals []float64, basis *Matrix, sweeps int, met bool, err error) {
	// The thresholds consuming these eigenvalues are statistical control
	// limits, not spectral decompositions for their own sake: 7 significant
	// digits on the eigenvalues moves the Q limit by far less than one
	// timebin of sampling noise, while a tighter tolerance can triple the
	// iteration count on slowly separating trailing eigenpairs.
	const (
		maxIter = 80
		relTol  = 1e-7
	)
	var prev []float64
	for {
		zt := applyS(qt) // b x p: ((n-1)·C·Q)ᵀ
		sweeps++
		// Rayleigh–Ritz estimates on the current basis: B = QᵀSQ·scale,
		// symmetric up to rounding and handed to SymEigen exactly so.
		var w *Matrix
		vals, w, err = SymEigen(ritzMatrix(qt, zt, scale))
		if err != nil {
			return nil, nil, sweeps, false, fmt.Errorf("mat: FitPCAPartial projection eigen: %w", err)
		}
		met = converged(vals, prev, m, relTol)
		if met || sweeps == maxIter {
			// Rotate the basis to the Ritz vectors and finish.
			return vals, MulAtB(w, qt), sweeps, met, nil // b x p: row i = i-th Ritz vector
		}
		prev = append(prev[:0], vals...)
		orthonormalizeRows(zt, rng)
		qt = zt
	}
}

// ritzMatrix returns the b x b projection Qt·Ztᵀ·scale with each
// off-diagonal pair replaced by its mean, so it is symmetric to the bit.
func ritzMatrix(qt, zt *Matrix, scale float64) *Matrix {
	r := MulABt(qt, zt)
	b := r.rows
	for i := 0; i < b; i++ {
		r.data[i*b+i] *= scale
		for j := i + 1; j < b; j++ {
			v := (r.data[i*b+j] + r.data[j*b+i]) * (0.5 * scale)
			r.data[i*b+j], r.data[j*b+i] = v, v
		}
	}
	return r
}

// converged reports whether the top-m eigenvalue estimates have settled:
// the aggregate movement since the previous iterate is below relTol of the
// captured variance. An aggregate test lets sub-dominant eigenpairs (whose
// individual convergence is slow when gaps are small) stop the iteration
// once their wiggle no longer matters to the statistics built on them.
func converged(vals, prev []float64, m int, relTol float64) bool {
	if prev == nil || len(vals) < m || len(prev) < m {
		return false
	}
	var moved, total float64
	for i := 0; i < m; i++ {
		moved += math.Abs(vals[i] - prev[i])
		total += math.Abs(vals[i])
	}
	return moved <= relTol*(total+1e-300)
}

// orthonormalizeRows runs modified Gram–Schmidt over the rows of q. Rows
// that collapse to (near) zero — rank deficiency in the iterate — are
// refilled from the deterministic rng and re-orthogonalized, keeping the
// basis full-rank without breaking reproducibility.
func orthonormalizeRows(q *Matrix, rng *rand.Rand) {
	rows, cols := q.rows, q.cols
	for i := 0; i < rows; i++ {
		ri := q.data[i*cols : (i+1)*cols]
		for attempt := 0; ; attempt++ {
			for j := 0; j < i; j++ {
				rj := q.data[j*cols : (j+1)*cols]
				d := Dot(ri, rj)
				for c := range ri {
					ri[c] -= d * rj[c]
				}
			}
			norm := Norm2(ri)
			if norm > 1e-12 {
				s := 1 / norm
				for c := range ri {
					ri[c] *= s
				}
				break
			}
			if attempt > 4 {
				// Degenerate data (e.g. fewer independent directions than
				// rows); leave the row zero rather than loop forever.
				for c := range ri {
					ri[c] = 0
				}
				break
			}
			for c := range ri {
				ri[c] = rng.NormFloat64()
			}
		}
	}
}
