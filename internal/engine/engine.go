// Package engine is the single shared implementation of the subspace
// detection model. Every detection path in the repository — the batch
// analysis (core.Analyze), the one-vector-at-a-time online detector
// (core.OnlineDetector) and the concurrent streaming pipeline
// (stream.Pipeline) — is an adapter over one *Model fitted here.
//
// A Model is an immutable generation of the method's state: the PCA of a
// training window (full Jacobi eigendecomposition where affordable, block
// subspace iteration on wide OD matrices), the Jackson–Mudholkar Q
// threshold and the Hotelling T² control limit derived from it, and the
// cached normal-subspace basis used by batch scoring. Refit produces the
// next generation from a new training window, warm-starting the partial
// PCA from the previous generation's basis: a refit of a window the basis
// already fits starts at the fixed point of the subspace iteration and
// stops in a couple of sweeps; a nightly refit of real traffic keeps the
// leading axes and re-converges the trailing ones (mat.FitPCAPartialWarm).
package engine

import (
	"errors"
	"fmt"
	"math"

	"netwide/internal/mat"
	"netwide/internal/stats"
)

// Options configures the subspace method.
type Options struct {
	// K is the dimension of the normal subspace. The paper uses 4.
	K int
	// Alpha is the false-alarm rate of both thresholds; the paper computes
	// thresholds at the 99.9% confidence level (alpha = 0.001).
	Alpha float64
}

// DefaultOptions returns the paper's parameters (k = 4, 99.9% confidence).
func DefaultOptions() Options { return Options{K: 4, Alpha: 0.001} }

// StatKind identifies which statistic raised an alarm.
type StatKind int

// The two detection statistics.
const (
	StatSPE StatKind = iota // squared prediction error (Q-statistic)
	StatT2                  // Hotelling T² in the normal subspace
)

// String names the statistic.
func (s StatKind) String() string {
	switch s {
	case StatSPE:
		return "SPE"
	case StatT2:
		return "T2"
	default:
		return fmt.Sprintf("StatKind(%d)", int(s))
	}
}

// Alarm is one timebin flagged by one statistic.
type Alarm struct {
	Bin   int
	Stat  StatKind
	Value float64 // the statistic's value at the bin
	Limit float64 // the threshold it exceeded
}

// Point is the verdict for one scored traffic vector.
type Point struct {
	SPE      float64
	T2       float64
	SPEAlarm bool
	T2Alarm  bool
	// TopResidualOD is the OD (column) with the largest squared residual —
	// the first flow an operator should look at when either alarm fires.
	TopResidualOD int
}

// MaxFullPCAVars is the OD-matrix width beyond which Fit abandons the full
// O(p³) Jacobi eigendecomposition for the partial subspace-iteration fit.
// 512 keeps the reference Abilene path (p = 121) and every similarly sized
// topology on the exact full fit while making 100+-PoP synthetic backbones
// (p = 10⁴⁺) tractable.
const MaxFullPCAVars = 512

// Model is one immutable generation of the fitted subspace model: PCA,
// both detection thresholds, and the cached normal-subspace basis. All
// methods are safe for concurrent use; refitting returns a new Model
// rather than mutating the receiver, so scoring paths can hold one behind
// an atomic pointer.
type Model struct {
	opts    Options
	pca     *mat.PCA
	qLimit  float64
	t2Limit float64
	// vk (p x k) holds the normal-subspace axes extracted once at fit
	// time; vkT is its transpose. Batch scoring applies them as two dense
	// products instead of per-element Components.At lookups.
	vk, vkT *mat.Matrix
	gen     uint64
	// updates counts the per-bin incremental updates folded into this
	// model since generation gen was fitted — 0 for every batch fit or
	// refit, incremented by IncrementalUpdater per published bin.
	updates uint64
	// train is the training window the model was fitted on, retained (as a
	// reference, not a copy — fits clone internally) so callers can reuse
	// it: the streaming pipeline seeds its rolling refit windows from it.
	train *mat.Matrix
}

// Fit trains generation 0 of the model on a training matrix (rows =
// timebins, cols = OD flows), which should be anomaly-light; as in the
// batch method, moderate contamination only inflates the thresholds
// slightly. Matrices wider than MaxFullPCAVars (or with fewer timebins
// than flows) are fitted via the partial-PCA path.
func Fit(train *mat.Matrix, opts Options) (*Model, error) {
	return fit(train, opts, nil, 0)
}

// Refit fits the next generation of the model on a new training window,
// keeping the options. When the model sits on the partial-PCA path, the
// subspace iteration is warm-started from the receiver's basis. The
// receiver is not modified. Unlike Fit, the new generation does not
// retain the window: refit windows are throwaway snapshots, and pinning
// one per generation would hold a dead Window x p matrix per lane for
// the lifetime of the model.
func (m *Model) Refit(train *mat.Matrix) (*Model, error) {
	next, err := fit(train, m.opts, m.pca, m.gen+1)
	if err != nil {
		return nil, err
	}
	next.train = nil
	return next, nil
}

// fitPCA picks the PCA strategy for an n x p traffic matrix: the exact
// full fit where it is affordable and statistically possible (p small and
// n > p, the paper's regime), otherwise a partial fit of the top 2k+8
// axes — several times the k the method consumes, which pins down the head
// of the residual spectrum; the flat-tail model in ResidualMoments covers
// the rest of the Q-threshold inputs. The partial fit iterates on the p x p
// Gram matrix when that is the smaller operand (a cold fit with p ≤ n: a
// geant week) and on the data matrix otherwise; a previous generation's
// PCA, when given, warm-starts it, and a warm start forms the Gram matrix
// only once it has run as many data-form sweeps as that costs — a refit
// that converges in two or three never pays for it.
func fitPCA(X *mat.Matrix, k int, warm *mat.PCA) (*mat.PCA, error) {
	n, p := X.Rows(), X.Cols()
	if p <= MaxFullPCAVars && n > p {
		return mat.FitPCA(X, true)
	}
	m := 2*k + 8
	if m > p {
		m = p
	}
	var basis *mat.Matrix
	if warm != nil && warm.P() == p {
		basis = warm.Components
	}
	return mat.FitPCAPartialWarm(X, m, true, basis)
}

func fit(train *mat.Matrix, opts Options, warm *mat.PCA, gen uint64) (*Model, error) {
	n, p := train.Rows(), train.Cols()
	if opts.K <= 0 || opts.K >= p {
		return nil, fmt.Errorf("engine: k=%d out of range (0,%d)", opts.K, p)
	}
	if !(opts.Alpha > 0 && opts.Alpha < 1) {
		return nil, fmt.Errorf("engine: alpha=%v out of (0,1)", opts.Alpha)
	}
	if n <= opts.K {
		return nil, fmt.Errorf("engine: training needs more than k=%d timebins, have %d", opts.K, n)
	}
	pca, err := fitPCA(train, opts.K, warm)
	if err != nil {
		return nil, err
	}
	phi1, phi2, phi3 := pca.ResidualMoments(opts.K)
	qLimit, err := stats.QThresholdFromMoments(phi1, phi2, phi3, opts.Alpha)
	if err != nil {
		return nil, fmt.Errorf("engine: Q threshold: %w", err)
	}
	t2Limit, err := stats.T2Threshold(opts.K, n, opts.Alpha)
	if err != nil {
		return nil, fmt.Errorf("engine: T2 threshold: %w", err)
	}
	vk := pca.TopComponents(opts.K)
	return &Model{
		opts: opts, pca: pca,
		qLimit: qLimit, t2Limit: t2Limit,
		vk: vk, vkT: vk.T(),
		gen: gen, train: train,
	}, nil
}

// ModelState is the serializable form of one model generation: everything
// Restore needs to reassemble a scoring-equivalent *Model in a fresh
// process — the fitted PCA (mean, spectrum, axes), both detection
// thresholds, and the generation counter. It is plain data by construction
// (internal/checkpoint's codec writes it field by field: a new field needs a
// line there); the retained training window is deliberately excluded (the
// streaming pipeline checkpoints its rolling refit window separately, which
// is the live superset).
type ModelState struct {
	Opts Options
	Gen  uint64
	// Updates is the number of per-bin incremental updates folded into
	// this generation (0 under the refit lifecycle).
	Updates uint64
	// QLimit and T2Limit are stored rather than recomputed: the T²
	// threshold depends on the training row count and the Q threshold on
	// the residual spectrum model, and a restored model must alarm exactly
	// as the checkpointed one did.
	QLimit, T2Limit float64
	// N is the observation count of the fit, TotalVar the covariance
	// trace — both feed the residual-moment model of the NEXT refit.
	N        int
	TotalVar float64
	Mean     []float64
	// Eigenvalues pair with Components' columns; Components holds the
	// component matrix as p rows of m coefficients.
	Eigenvalues []float64
	Components  [][]float64
}

// State captures the model as plain serializable data. The slices are
// copies: the state stays valid however long the caller holds it, and a
// later mutation of the state cannot reach back into the (immutable,
// possibly still scoring) model.
func (m *Model) State() ModelState {
	p := m.pca.P()
	st := ModelState{
		Opts:        m.opts,
		Gen:         m.gen,
		Updates:     m.updates,
		QLimit:      m.qLimit,
		T2Limit:     m.t2Limit,
		N:           m.pca.N(),
		TotalVar:    m.pca.TotalVar,
		Mean:        append([]float64(nil), m.pca.Mean...),
		Eigenvalues: append([]float64(nil), m.pca.Eigenvalues...),
		Components:  make([][]float64, p),
	}
	for i := 0; i < p; i++ {
		st.Components[i] = append([]float64(nil), m.pca.Components.RowView(i)...)
	}
	return st
}

// MaxRestored bounds the magnitude of every value a restore accepts (the
// server holds restored open-bin traffic to it too). A
// checkpoint is untrusted, and a value can be finite and still poison the
// model: a mean of 1e296 passes an IsInf test and turns the tracked trace
// into +Inf at the next bin's (x - mean)². No traffic statistic, nor its
// square or cube, comes within a hundred orders of magnitude of this.
const MaxRestored = 1e100

// restorable reports whether v is a number a restored model may hold:
// not NaN, not infinite, not absurd. The error messages call all three
// "non-finite".
func restorable(v float64) bool { return math.Abs(v) <= MaxRestored }

// Restore reassembles a Model from a State captured by State — the crash
// recovery path. The state is untrusted input (it crossed a disk): every
// shape and value is validated before it can reach a scoring path, and a
// state that fails validation returns a descriptive error rather than a
// model that panics later. The restored model scores bit-identically to
// the checkpointed generation (same mean, axes, eigenvalues, thresholds)
// and refits warm-start from its basis exactly as the original would.
func Restore(st ModelState) (*Model, error) {
	p := len(st.Mean)
	if p == 0 {
		return nil, errors.New("engine: restore: empty mean")
	}
	if st.Opts.K <= 0 || st.Opts.K >= p {
		return nil, fmt.Errorf("engine: restore: k=%d out of range (0,%d)", st.Opts.K, p)
	}
	if !(st.Opts.Alpha > 0 && st.Opts.Alpha < 1) {
		return nil, fmt.Errorf("engine: restore: alpha=%v out of (0,1)", st.Opts.Alpha)
	}
	if st.Opts.K > len(st.Eigenvalues) {
		return nil, fmt.Errorf("engine: restore: k=%d exceeds %d stored axes", st.Opts.K, len(st.Eigenvalues))
	}
	if len(st.Components) != p {
		return nil, fmt.Errorf("engine: restore: %d component rows, want %d", len(st.Components), p)
	}
	for i, row := range st.Components {
		if len(row) != len(st.Eigenvalues) {
			return nil, fmt.Errorf("engine: restore: component row %d has %d cols, want %d", i, len(row), len(st.Eigenvalues))
		}
		for _, v := range row {
			if !restorable(v) {
				return nil, fmt.Errorf("engine: restore: non-finite component in row %d", i)
			}
		}
	}
	for _, v := range st.Mean {
		if !restorable(v) {
			return nil, errors.New("engine: restore: non-finite mean")
		}
	}
	for _, v := range st.Eigenvalues {
		if !restorable(v) {
			return nil, errors.New("engine: restore: non-finite eigenvalue")
		}
	}
	if !restorable(st.TotalVar) {
		return nil, errors.New("engine: restore: non-finite total variance")
	}
	if !(st.QLimit > 0) || !restorable(st.QLimit) {
		return nil, fmt.Errorf("engine: restore: Q limit %v not a positive finite threshold", st.QLimit)
	}
	if !(st.T2Limit > 0) || !restorable(st.T2Limit) {
		return nil, fmt.Errorf("engine: restore: T2 limit %v not a positive finite threshold", st.T2Limit)
	}
	comps, err := mat.NewFromRows(st.Components)
	if err != nil {
		return nil, fmt.Errorf("engine: restore: components: %w", err)
	}
	pca, err := mat.NewPCA(st.Mean, st.Eigenvalues, comps, st.TotalVar, st.N)
	if err != nil {
		return nil, fmt.Errorf("engine: restore: %w", err)
	}
	vk := pca.TopComponents(st.Opts.K)
	return &Model{
		opts: st.Opts, pca: pca,
		qLimit: st.QLimit, t2Limit: st.T2Limit,
		vk: vk, vkT: vk.T(),
		gen: st.Gen, updates: st.Updates,
	}, nil
}

// P returns the number of OD flows (vector length) the model scores.
func (m *Model) P() int { return m.pca.P() }

// Opts returns the options the model was fitted with.
func (m *Model) Opts() Options { return m.opts }

// Gen returns the model generation: 0 for Fit, incremented by each Refit.
func (m *Model) Gen() uint64 { return m.gen }

// Updates returns the number of per-bin incremental updates folded into
// this generation (0 for batch fits and refits).
func (m *Model) Updates() uint64 { return m.updates }

// Limits returns the (Q, T²) thresholds of this generation.
func (m *Model) Limits() (qLimit, t2Limit float64) { return m.qLimit, m.t2Limit }

// PCA exposes the fitted principal component analysis.
func (m *Model) PCA() *mat.PCA { return m.pca }

// FitWarning reports a fit that stopped short of its tolerance: the
// partial-PCA iteration ran out of sweeps with its convergence test unmet.
// The model still scores — its axes are the best iterate reached and its
// thresholds are consistent with them — so callers treat this as the
// degraded condition a failed refit is, not as a failed fit.
func (m *Model) FitWarning() error {
	if !m.pca.Unconverged {
		return nil
	}
	return fmt.Errorf("engine: partial PCA unconverged after %d sweeps (generation %d keeps its last iterate)", m.pca.Sweeps, m.gen)
}

// Train returns the training window the model was fitted on — the
// caller's matrix, not a copy; treat it as read-only. Only generation 0
// retains its window (the streaming pipeline seeds refit rings from it);
// Refit generations return nil.
func (m *Model) Train() *mat.Matrix { return m.train }

// ReleaseTrain drops the retained training window. Adapters that never
// read Train (the serial online detector, the batch analysis) call it so
// a long-lived model does not pin a transient training matrix.
func (m *Model) ReleaseTrain() { m.train = nil }

// Score evaluates one traffic vector x (length = number of OD flows).
func (m *Model) Score(x []float64) (Point, error) {
	p := m.pca.P()
	if len(x) != p {
		return Point{}, fmt.Errorf("engine: vector length %d, want %d", len(x), p)
	}
	// Center.
	xc := make([]float64, p)
	for i, v := range x {
		xc[i] = v - m.pca.Mean[i]
	}
	// Scores on the top-k axes and T².
	var pt Point
	proj := make([]float64, p) // modeled part accumulated across axes
	for i := 0; i < m.opts.K; i++ {
		var s float64
		for f := 0; f < p; f++ {
			s += xc[f] * m.pca.Components.At(f, i)
		}
		if l := m.pca.Eigenvalues[i]; l > 0 {
			pt.T2 += s * s / l
		}
		for f := 0; f < p; f++ {
			proj[f] += s * m.pca.Components.At(f, i)
		}
	}
	best, bestSq := 0, 0.0
	for f := 0; f < p; f++ {
		r := xc[f] - proj[f]
		sq := r * r
		pt.SPE += sq
		if sq > bestSq {
			best, bestSq = f, sq
		}
	}
	pt.TopResidualOD = best
	pt.SPEAlarm = pt.SPE > m.qLimit
	pt.T2Alarm = pt.T2 > m.t2Limit
	return pt, nil
}

// ScoreBatch evaluates a batch of traffic vectors in one pass, appending
// the verdicts to dst (which may be nil) and returning it. The batch is
// staged as an m x p matrix so the subspace projection becomes two dense
// products on the cached normal-subspace basis — tight slice loops instead
// of Score's per-element accessor arithmetic, and parallel across
// mat.Workers() goroutines when the batch is large enough. Results are in
// input order and numerically identical to scoring each vector alone.
func (m *Model) ScoreBatch(xs [][]float64, dst []Point) ([]Point, error) {
	n := len(xs)
	if n == 0 {
		return dst, nil
	}
	p, k := m.pca.P(), m.opts.K
	xc := mat.New(n, p)
	for i, x := range xs {
		if len(x) != p {
			return dst, fmt.Errorf("engine: batch vector %d length %d, want %d", i, len(x), p)
		}
		row := xc.RowView(i)
		for f, v := range x {
			row[f] = v - m.pca.Mean[f]
		}
	}
	scores := mat.Mul(xc, m.vk)    // n x k: coordinates in the normal subspace
	proj := mat.Mul(scores, m.vkT) // n x p: modeled part of each vector
	for i := 0; i < n; i++ {
		var pt Point
		srow := scores.RowView(i)
		for j := 0; j < k; j++ {
			if l := m.pca.Eigenvalues[j]; l > 0 {
				pt.T2 += srow[j] * srow[j] / l
			}
		}
		xrow, prow := xc.RowView(i), proj.RowView(i)
		best, bestSq := 0, 0.0
		for f, v := range xrow {
			r := v - prow[f]
			sq := r * r
			pt.SPE += sq
			if sq > bestSq {
				best, bestSq = f, sq
			}
		}
		pt.TopResidualOD = best
		pt.SPEAlarm = pt.SPE > m.qLimit
		pt.T2Alarm = pt.T2 > m.t2Limit
		dst = append(dst, pt)
	}
	return dst, nil
}

// Split decomposes one traffic vector into its modeled (normal-subspace
// projection) and residual parts, both in the centered coordinate frame —
// the per-vector form of PCA.ProjectionSplit, used by live anomaly
// attribution. The products run in the same order as ScoreBatch, so the
// residual is bit-identical to the batch analysis residual of the same
// vector under the same model.
func (m *Model) Split(x []float64) (modeled, residual []float64, err error) {
	p := m.pca.P()
	if len(x) != p {
		return nil, nil, fmt.Errorf("engine: vector length %d, want %d", len(x), p)
	}
	xc := mat.New(1, p)
	row := xc.RowView(0)
	for f, v := range x {
		row[f] = v - m.pca.Mean[f]
	}
	scores := mat.Mul(xc, m.vk)
	proj := mat.Mul(scores, m.vkT)
	modeled = proj.RowView(0)
	residual = make([]float64, p)
	for f, v := range row {
		residual[f] = v - modeled[f]
	}
	return modeled, residual, nil
}
