package engine

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"netwide/internal/mat"
	"netwide/internal/stats"
)

// amnesia is the CCIPCA amnesic-averaging parameter l: each update weights
// the new observation (1+l)/n instead of 1/n, gradually down-weighting old
// data so the tracker follows slow drift instead of freezing on its seed.
// 2 is the value recommended by Weng, Zhang & Hwang (2003).
const amnesia = 2.0

// tinyNorm is the axis-norm floor below which a tracked direction is
// considered lost and re-initialized from the current residual.
const tinyNorm = 1e-150

// maxTrackedAxes bounds the tracked head of the spectrum at 2k+8 —
// mirroring the partial-PCA fit, which computes the same head and models
// the residual tail as flat (mat.PCA.ResidualMoments).
func maxTrackedAxes(k, p int) int {
	m := 2*k + 8
	if m > p {
		m = p
	}
	return m
}

// IncrementalUpdater is the per-bin lifecycle: a CCIPCA (candid
// covariance-free incremental PCA) tracker seeded from an exact batch fit.
// Every Observe folds the closed bin into the running mean, the covariance
// trace and the top-m eigenpairs with one O(p·m) rank-1 sweep, rebuilds
// the Jackson–Mudholkar Q threshold from the tracked residual moments and
// the T² limit from the effective observation count, and publishes a fresh
// immutable Model — so while the updates succeed the scoring model has
// absorbed every bin it observed, and no full refit is ever required for
// freshness.
//
// Tracker math, per axis i in dominance order (Weng et al. 2003): with
// u the centered observation after deflation against axes < i,
//
//	v_i ← (n-1-l)/n · v_i + (1+l)/n · (uᵀv_i/‖v_i‖) · u
//	u   ← u − (uᵀv_i/‖v_i‖²) · v_i
//
// where ‖v_i‖ estimates eigenvalue λ_i and v_i/‖v_i‖ the axis. n is capped
// at the forgetting horizon (UpdaterConfig.Window), turning the recursion
// into an exponential forgetting scheme once the horizon is reached.
//
// When RefitEvery > 0 the updater also maintains the rolling window and
// hands out snapshots for periodic exact refits — the drift-correction
// fallback that bounds accumulated tracking error. Installing the fitted
// correction reseeds the tracker from it and bumps the model generation
// exactly as a refit swap would.
type IncrementalUpdater struct {
	opts       Options
	p, m       int
	horizon    int
	refitEvery int

	model atomic.Pointer[Model]
	// stale counts the bins observed since the scoring model was published,
	// the publishing bin included: 1 while every update succeeds, one more
	// per failed one, 0 for a model installed whole (the seed fit, a drift
	// correction) until the next bin publishes.
	stale atomic.Int64

	// Tracker state, owned by the Observe goroutine.
	mean     []float64
	axes     [][]float64 // m vectors of length p; ‖axes[i]‖ estimates λ_i
	totalVar float64
	n        int

	ring winRing

	resid []float64 // deflation scratch
}

// TrackerState is the incremental tracker's serializable recovery state.
type TrackerState struct {
	// N is the effective observation count (capped at Horizon).
	N int
	// Horizon is the forgetting horizon in bins.
	Horizon int
	// TotalVar is the tracked covariance trace.
	TotalVar float64
	Mean     []float64
	// Axes[i] is tracked vector i (length p), norm = eigenvalue estimate.
	Axes [][]float64
}

func newIncrementalUpdater(m *Model, cfg UpdaterConfig) *IncrementalUpdater {
	u := &IncrementalUpdater{
		opts:       m.Opts(),
		p:          m.P(),
		refitEvery: cfg.RefitEvery,
		horizon:    cfg.Window,
	}
	if u.horizon <= 0 {
		u.horizon = m.PCA().N()
	}
	u.m = maxTrackedAxes(u.opts.K, u.p)
	if nc := m.PCA().NumComputed(); u.m > nc {
		u.m = nc
	}
	u.model.Store(m)
	u.seedTracker(m)
	if cfg.RefitEvery > 0 {
		u.ring = newWinRing(cfg.Window, u.p)
	}
	u.resid = make([]float64, u.p)
	return u
}

// seedTracker re-centers the tracker on an exactly fitted model: axes are
// the model's top-m eigenvectors scaled by their eigenvalues (so the norm
// carries the eigenvalue estimate), the mean, trace and count come from
// the fit.
func (u *IncrementalUpdater) seedTracker(m *Model) {
	pca := m.PCA()
	u.mean = append(u.mean[:0], pca.Mean...)
	if u.axes == nil {
		u.axes = make([][]float64, u.m)
		for i := range u.axes {
			u.axes[i] = make([]float64, u.p)
		}
	}
	for i := range u.axes {
		l := pca.Eigenvalues[i]
		v := u.axes[i]
		for f := 0; f < u.p; f++ {
			v[f] = pca.Components.At(f, i) * l
		}
	}
	u.totalVar = pca.TotalVar
	u.n = pca.N()
	if u.n > u.horizon {
		u.n = u.horizon
	}
}

// Kind returns UpdaterIncremental.
func (u *IncrementalUpdater) Kind() UpdaterKind { return UpdaterIncremental }

// InBand returns true: Observe itself swaps the scoring model, so callers
// must score a bin before observing it.
func (u *IncrementalUpdater) InBand() bool { return true }

// Model returns the current scoring model.
func (u *IncrementalUpdater) Model() *Model { return u.model.Load() }

// Observe folds one closed bin into the tracker and publishes the updated
// model. With drift correction enabled it also maintains the rolling
// window and returns a snapshot when an exact refit is due. An error
// leaves the previous model scoring (degraded, not fatal).
func (u *IncrementalUpdater) Observe(x []float64) (*mat.Matrix, error) {
	if len(x) != u.p {
		return nil, fmt.Errorf("engine: updater vector length %d, want %d", len(x), u.p)
	}
	var snap *mat.Matrix
	if u.ring.push(x, u.refitEvery) {
		snap = u.ring.snapshot()
	}
	u.track(x)
	if err := u.publish(); err != nil {
		u.stale.Add(1)
		return snap, fmt.Errorf("engine: incremental update: %w", err)
	}
	u.stale.Store(1)
	return snap, nil
}

// track runs the amnesic CCIPCA sweep: mean, covariance trace, then each
// tracked axis with deflation.
func (u *IncrementalUpdater) track(x []float64) {
	if u.n < u.horizon {
		u.n++
	}
	n := float64(u.n)
	w2 := (1 + amnesia) / n
	if w2 > 1 {
		w2 = 1
	}
	w1 := 1 - w2
	res := u.resid
	var sq float64
	for j, v := range x {
		u.mean[j] = w1*u.mean[j] + w2*v
		r := v - u.mean[j]
		res[j] = r
		sq += r * r
	}
	u.totalVar = w1*u.totalVar + w2*sq
	for _, v := range u.axes {
		var nv2, y float64
		for j, c := range v {
			nv2 += c * c
			y += res[j] * c
		}
		nv := math.Sqrt(nv2)
		if nv <= tinyNorm {
			// Direction lost: re-initialize from the residual, which is
			// then fully explained.
			copy(v, res)
			for j := range res {
				res[j] = 0
			}
			continue
		}
		y /= nv // projection of the residual on the unit axis
		var dot2, norm2 float64
		for j := range v {
			v[j] = w1*v[j] + w2*y*res[j]
			norm2 += v[j] * v[j]
			dot2 += res[j] * v[j]
		}
		if norm2 > tinyNorm*tinyNorm {
			c := dot2 / norm2
			for j := range res {
				res[j] -= c * v[j]
			}
		}
	}
}

// publish assembles an immutable Model from the tracker state — tracked
// eigenpairs sorted by dominance, thresholds recomputed from the streaming
// residual moments — and swaps it in. The covariance trace is floored at
// the tracked head so the flat-tail residual model never sees a negative
// tail.
func (u *IncrementalUpdater) publish() error {
	cur := u.model.Load()
	eigs := make([]float64, u.m)
	order := make([]int, u.m)
	var head float64
	for i, v := range u.axes {
		var nv2 float64
		for _, c := range v {
			nv2 += c * c
		}
		eigs[i] = math.Sqrt(nv2)
		head += eigs[i]
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return eigs[order[a]] > eigs[order[b]] })
	sorted := make([]float64, u.m)
	comps := mat.New(u.p, u.m)
	for c, idx := range order {
		l := eigs[idx]
		sorted[c] = l
		if l <= tinyNorm {
			continue // zero column: a lost direction contributes no variance
		}
		inv := 1 / l
		v := u.axes[idx]
		for r := 0; r < u.p; r++ {
			comps.Set(r, c, v[r]*inv)
		}
	}
	tv := u.totalVar
	if tv < head {
		tv = head
	}
	pca, err := mat.NewPCA(append([]float64(nil), u.mean...), sorted, comps, tv, u.n)
	if err != nil {
		return err
	}
	phi1, phi2, phi3 := pca.ResidualMoments(u.opts.K)
	qLimit, err := stats.QThresholdFromMoments(phi1, phi2, phi3, u.opts.Alpha)
	if err != nil {
		return fmt.Errorf("Q threshold: %w", err)
	}
	t2Limit, err := stats.T2Threshold(u.opts.K, u.n, u.opts.Alpha)
	if err != nil {
		return fmt.Errorf("T2 threshold: %w", err)
	}
	vk := pca.TopComponents(u.opts.K)
	next := &Model{
		opts: u.opts, pca: pca,
		qLimit: qLimit, t2Limit: t2Limit,
		vk: vk, vkT: vk.T(),
		gen: cur.gen, updates: cur.updates + 1,
	}
	u.model.Store(next)
	return nil
}

// Install adopts a drift-correction model fitted from a window Observe
// handed out: the tracker reseeds from it, and it scores the next bin.
func (u *IncrementalUpdater) Install(next *Model) {
	u.seedTracker(next)
	u.model.Store(next)
	u.stale.Store(0)
}

// Freshness reports the per-bin gauges, read off the scoring model, and
// the bins observed since it was published: one while the updates succeed,
// growing by one per bin whose update failed.
func (u *IncrementalUpdater) Freshness() Freshness {
	m := u.Model()
	return Freshness{
		Kind:            UpdaterIncremental,
		Gen:             m.gen,
		Updates:         m.updates,
		SinceCorrection: int(m.updates),
		Staleness:       int(u.stale.Load()),
	}
}

// State captures the full lifecycle state: scoring model, tracker vectors
// and the drift-correction window (deep copies throughout).
func (u *IncrementalUpdater) State() UpdaterState {
	tr := &TrackerState{
		N:        u.n,
		Horizon:  u.horizon,
		TotalVar: u.totalVar,
		Mean:     append([]float64(nil), u.mean...),
		Axes:     make([][]float64, len(u.axes)),
	}
	for i, v := range u.axes {
		tr.Axes[i] = append([]float64(nil), v...)
	}
	return UpdaterState{
		Kind:    UpdaterIncremental,
		Model:   u.Model().State(),
		Window:  u.ring.chron(),
		Since:   u.ring.since,
		Tracker: tr,
	}
}

// restoreIncremental validates and reassembles an incremental updater from
// its captured state. m is the already-restored scoring model.
func restoreIncremental(m *Model, st UpdaterState, cfg UpdaterConfig) (*IncrementalUpdater, error) {
	tr := st.Tracker
	if tr == nil {
		return nil, errors.New("engine: incremental updater state has no tracker")
	}
	p := m.P()
	if len(tr.Mean) != p {
		return nil, fmt.Errorf("engine: restore: tracker mean length %d, want %d", len(tr.Mean), p)
	}
	for _, v := range tr.Mean {
		if !Restorable(v) {
			return nil, errors.New("engine: restore: non-finite tracker mean")
		}
	}
	if max := maxTrackedAxes(m.Opts().K, p); len(tr.Axes) == 0 || len(tr.Axes) > max {
		return nil, fmt.Errorf("engine: restore: %d tracked axes out of range (0,%d]", len(tr.Axes), max)
	}
	if err := finiteRows(tr.Axes, p, "tracker axis"); err != nil {
		return nil, err
	}
	if tr.Horizon < 2 {
		return nil, fmt.Errorf("engine: restore: tracker horizon %d, want >= 2", tr.Horizon)
	}
	if tr.N < 2 || tr.N > tr.Horizon {
		return nil, fmt.Errorf("engine: restore: tracker count %d outside [2,%d]", tr.N, tr.Horizon)
	}
	if !Restorable(tr.TotalVar) || tr.TotalVar < 0 {
		return nil, errors.New("engine: restore: tracker trace not finite and non-negative")
	}
	if cfg.Window > 0 && tr.Horizon != cfg.Window {
		return nil, fmt.Errorf("engine: restore: tracker horizon %d does not match configured window %d", tr.Horizon, cfg.Window)
	}
	u := &IncrementalUpdater{
		opts:       m.Opts(),
		p:          p,
		m:          len(tr.Axes),
		horizon:    tr.Horizon,
		refitEvery: cfg.RefitEvery,
		totalVar:   tr.TotalVar,
		n:          tr.N,
		mean:       append([]float64(nil), tr.Mean...),
		axes:       make([][]float64, len(tr.Axes)),
		resid:      make([]float64, p),
	}
	for i, v := range tr.Axes {
		u.axes[i] = append([]float64(nil), v...)
	}
	u.model.Store(m)
	if m.updates > 0 {
		u.stale.Store(1) // the capturing process published it
	}
	if cfg.RefitEvery > 0 {
		u.ring = newWinRing(cfg.Window, p)
		u.ring.seed(st.Window)
		u.ring.since = st.Since
	}
	return u, nil
}
