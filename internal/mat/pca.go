package mat

import (
	"errors"
	"math"
)

// PCA holds a principal component analysis of an n x p data matrix X whose
// rows are observations (timebins) and whose columns are variables (OD
// flows).
//
// Components are the principal axes v_i (columns of an orthonormal matrix),
// ordered by descending eigenvalue of the covariance. Eigenvalues are the
// variances captured along each axis. Mean is the per-column mean removed
// before analysis (all zeros when fitted with centering disabled).
//
// A full fit (FitPCA) computes all p axes (Eigenvalues of length p); a
// partial fit (FitPCAPartial) computes only the top m (Eigenvalues of length
// m), with the exact covariance trace retained in TotalVar so
// residual-spectrum computations can account for the uncomputed tail. The
// basis may keep fewer axes than the spectrum has values: FitPCA returns all
// p, and a caller that reads only the leading axes may keep just those (the
// detection engine keeps 2k+16 of a full fit's p), since the residual
// moments and the variance fractions read the eigenvalues alone.
type PCA struct {
	Mean        []float64
	Eigenvalues []float64
	Components  *Matrix // p x c, c <= len(Eigenvalues); column i is axis i.
	// TotalVar is the covariance trace: the total variance across all p
	// variables, whether or not their axes were computed.
	TotalVar float64
	// Sweeps is the number of subspace-iteration sweeps a partial fit ran
	// (0 for a full fit or a reassembled PCA); Unconverged reports that it
	// stopped at the sweep cap with the convergence test still unmet, so
	// the trailing axes are looser than the tolerance promises.
	Sweeps      int
	Unconverged bool
	n           int // number of observations used in the fit
	vars        int // number of variables p (columns of the fitted data)
}

// FitPCA computes the PCA of X. If center is true the column means are
// removed first (the standard formulation, and the one used throughout this
// repository: the subspace method studies deviations around the mean OD
// traffic).
//
// The covariance accumulation — the O(n·p²) hot path of a fit, and the
// dominant cost of every refit in the streaming pipeline — runs
// on the parallel Gram kernel; tune it with SetWorkers.
func FitPCA(X *Matrix, center bool) (*PCA, error) {
	if X.Rows() < 2 {
		return nil, errors.New("mat: FitPCA needs at least 2 rows")
	}
	work := X.Clone()
	var mean []float64
	if center {
		mean = work.CenterColumns()
	} else {
		mean = make([]float64, X.Cols())
	}
	cov := Scale(1/float64(work.Rows()-1), work.Gram())
	vals, vecs, err := SymEigen(cov)
	if err != nil {
		return nil, err
	}
	// Clamp tiny negative eigenvalues caused by roundoff: covariance is PSD.
	var total float64
	for i, v := range vals {
		if v < 0 {
			vals[i] = 0
		}
		total += vals[i]
	}
	return &PCA{Mean: mean, Eigenvalues: vals, Components: vecs, TotalVar: total, n: X.Rows(), vars: X.Cols()}, nil
}

// NewPCA reassembles a PCA from previously fitted parts — the restore path
// of model checkpointing, where the eigendecomposition was computed in a
// past process and must not be recomputed (a refit from scratch is exactly
// what a checkpoint exists to avoid). The parts are validated for mutual
// consistency (a p-variable PCA needs a p-length mean and p-row component
// matrix; component column i pairs with eigenvalue i, and the basis may keep
// fewer columns than there are eigenvalues, never more; n is the
// observation count of the original fit) but not for orthonormality: the
// caller's checksummed envelope owns integrity, this owns shape.
func NewPCA(mean, eigenvalues []float64, components *Matrix, totalVar float64, n int) (*PCA, error) {
	if components == nil {
		return nil, errors.New("mat: NewPCA nil components")
	}
	p := len(mean)
	if p == 0 {
		return nil, errors.New("mat: NewPCA empty mean")
	}
	if components.Rows() != p {
		return nil, errors.New("mat: NewPCA components rows != len(mean)")
	}
	if len(eigenvalues) == 0 || len(eigenvalues) > p {
		return nil, errors.New("mat: NewPCA eigenvalue count out of range")
	}
	if components.Cols() == 0 || components.Cols() > len(eigenvalues) {
		return nil, errors.New("mat: NewPCA components cols outside [1, len(eigenvalues)]")
	}
	if n < 2 {
		return nil, errors.New("mat: NewPCA needs n >= 2 observations")
	}
	for _, v := range eigenvalues {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, errors.New("mat: NewPCA non-finite or negative eigenvalue")
		}
	}
	if math.IsNaN(totalVar) || math.IsInf(totalVar, 0) || totalVar < 0 {
		return nil, errors.New("mat: NewPCA non-finite or negative total variance")
	}
	return &PCA{Mean: mean, Eigenvalues: eigenvalues, Components: components, TotalVar: totalVar, n: n, vars: p}, nil
}

// N returns the number of observations the PCA was fitted on.
func (p *PCA) N() int { return p.n }

// P returns the number of variables (OD flows).
func (p *PCA) P() int { return p.vars }

// NumComputed returns the number of eigenvalues computed: p for a full fit,
// m for a partial one. The basis may keep fewer axes (Components.Cols()).
func (p *PCA) NumComputed() int { return len(p.Eigenvalues) }

// ResidualMoments returns the first three moments of the residual spectrum,
// phi_i = sum_{j>k} lambda_j^i — the inputs of the Jackson–Mudholkar Q
// threshold.
//
// For a partial fit the spectrum beyond the computed m axes is unknown, but
// its total variance is: the covariance trace minus the computed head. The
// tail of a sampled-traffic covariance is a noise floor of many comparable
// eigenvalues (not a continued fast decay), so the tail is modeled as flat —
// tail variance spread evenly over the remaining min(n-1, p) - m covariance
// directions. phi1 is exact either way; the flat model keeps phi2/phi3 from
// being underestimated, which would depress the Q threshold and flood the
// detector with false alarms on wide OD matrices.
func (p *PCA) ResidualMoments(k int) (phi1, phi2, phi3 float64) {
	if k < 0 || k > len(p.Eigenvalues) {
		panic("mat: ResidualMoments k out of range")
	}
	for _, l := range p.Eigenvalues[k:] {
		if l < 0 {
			l = 0
		}
		phi1 += l
		phi2 += l * l
		phi3 += l * l * l
	}
	if m := len(p.Eigenvalues); m < p.vars {
		var head float64
		for _, l := range p.Eigenvalues {
			head += l
		}
		rank := p.n - 1
		if p.vars < rank {
			rank = p.vars
		}
		if tail := p.TotalVar - head; tail > 0 && rank > m {
			cnt := float64(rank - m)
			avg := tail / cnt
			phi1 += tail
			phi2 += cnt * avg * avg
			phi3 += cnt * avg * avg * avg
		}
	}
	return phi1, phi2, phi3
}

// TopComponents returns the p x k matrix V_k whose columns are the top-k
// principal axes — the normal-subspace basis of the subspace method. k may
// not exceed the axes the basis keeps.
func (p *PCA) TopComponents(k int) *Matrix {
	if k < 0 || k > p.Components.Cols() {
		panic("mat: TopComponents k out of range")
	}
	return p.Components.HeadCols(k)
}

// VarianceExplained returns the cumulative fraction of total variance
// captured by the top-k components, for k = 1..NumComputed. The denominator
// is the full covariance trace, so partial fits report fractions of the
// true total, not of the computed head.
func (p *PCA) VarianceExplained() []float64 {
	total := p.TotalVar
	if total == 0 {
		for _, v := range p.Eigenvalues {
			total += v
		}
	}
	out := make([]float64, len(p.Eigenvalues))
	run := 0.0
	for i, v := range p.Eigenvalues {
		run += v
		if total > 0 {
			out[i] = run / total
		}
	}
	return out
}
