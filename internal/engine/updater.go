// The model lifecycle: how a fitted Model keeps up with drifting traffic.
//
// RefitUpdater keeps the model fixed and, every RefitEvery bins, hands out
// its rolling window for a warm-started full refit: up to RefitEvery bins
// stale, a full O(n·p²) fit per swap. IncrementalUpdater folds every closed
// bin in with a rank-1 subspace update instead, and refits only as a
// periodic drift correction. Either way the lane runs a due refit before it
// scores its next bin (Advance), so which generation scored which bin
// follows from the input alone.
package engine

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"netwide/internal/mat"
)

// UpdaterKind names a model-lifecycle strategy.
type UpdaterKind string

const (
	// UpdaterRefit is the generation-swap lifecycle: the model is immutable
	// between full refits of a rolling window every RefitEvery bins. The
	// default, and byte-compatible with the pre-Updater pipeline.
	UpdaterRefit UpdaterKind = "refit"
	// UpdaterIncremental folds every closed bin into the model with a
	// CCIPCA rank-1 subspace update plus streaming residual-moment and
	// threshold maintenance, optionally anchored by periodic exact refits
	// (drift corrections) every RefitEvery bins.
	UpdaterIncremental UpdaterKind = "incremental"
)

// ParseUpdaterKind maps a flag/config string to a kind; "" means the
// default refit lifecycle.
func ParseUpdaterKind(s string) (UpdaterKind, error) {
	switch UpdaterKind(s) {
	case "", UpdaterRefit:
		return UpdaterRefit, nil
	case UpdaterIncremental:
		return UpdaterIncremental, nil
	}
	return "", fmt.Errorf("engine: unknown updater %q (want %q or %q)", s, UpdaterRefit, UpdaterIncremental)
}

// UpdaterConfig tunes a model lifecycle.
type UpdaterConfig struct {
	// RefitEvery is the full-refit cadence in accepted bins: the refit
	// updater's swap period, the incremental updater's drift-correction
	// fallback period. 0 disables full refits.
	RefitEvery int
	// Window is the rolling window length in bins. For the refit updater
	// it is the training window of every refit (required > p when
	// RefitEvery > 0). For the incremental updater it doubles as the
	// forgetting horizon of the tracker and, when RefitEvery > 0, the
	// drift-correction refit window; 0 defaults the horizon to the seed
	// fit's observation count.
	Window int
}

// validate rejects incoherent kind/RefitEvery/Window combinations with a
// descriptive error instead of silently accepting a configuration that
// cannot do what it says. p is the model's vector length.
func (cfg UpdaterConfig) validate(kind UpdaterKind, p int) error {
	if cfg.RefitEvery < 0 {
		return fmt.Errorf("engine: negative refit cadence %d", cfg.RefitEvery)
	}
	if cfg.Window < 0 {
		return fmt.Errorf("engine: negative window %d", cfg.Window)
	}
	if cfg.RefitEvery > 0 && cfg.Window == 0 {
		return fmt.Errorf("engine: RefitEvery=%d requests periodic model corrections but Window=0 disables the rolling refit window they train on; set Window > %d or RefitEvery=0", cfg.RefitEvery, p)
	}
	switch kind {
	case UpdaterRefit:
		if cfg.RefitEvery > 0 && cfg.Window <= p {
			return fmt.Errorf("engine: refit window %d must exceed the vector length %d (the PCA fit needs more timebins than flows)", cfg.Window, p)
		}
		if cfg.RefitEvery == 0 && cfg.Window > 0 {
			return fmt.Errorf("engine: Window=%d configured but RefitEvery=0 never refits under the %q updater; set a refit cadence, drop the window, or use the %q updater", cfg.Window, UpdaterRefit, UpdaterIncremental)
		}
	case UpdaterIncremental:
		if cfg.Window > 0 && cfg.Window <= p {
			return fmt.Errorf("engine: incremental updater window %d must exceed the vector length %d (it is the tracker's forgetting horizon and the drift-correction refit window)", cfg.Window, p)
		}
	}
	return nil
}

// Freshness is the set of model-freshness gauges one lifecycle exposes.
type Freshness struct {
	Kind UpdaterKind
	// Gen is the scoring model's generation (full fits/refits).
	Gen uint64
	// Updates is the number of per-bin incremental updates folded into the
	// scoring model since its generation was fitted (0 under refit).
	Updates uint64
	// SinceCorrection is the number of bins observed since the last full
	// (re)fit was adopted.
	SinceCorrection int
	// Staleness is how many bins of observed traffic the scoring model has
	// not absorbed: up to RefitEvery under the refit lifecycle; under the
	// incremental one, the bins observed since the scoring model was
	// published, the publishing bin included — 1 while every per-bin update
	// succeeds, one more for each that failed.
	Staleness int
}

// SubspaceAngle returns the largest principal angle, in radians, between
// the normal subspaces (top-k principal axes) of two models of the same
// vector space: ~0 when they agree on the subspace, pi/2 when some normal
// direction of one is entirely abnormal to the other. It is the divergence
// metric behind the incremental tracker's documented bound (DESIGN.md E19),
// exported so callers can monitor tracked-vs-refit drift.
func SubspaceAngle(a, b *Model) (float64, error) {
	pa, pb := a.PCA(), b.PCA()
	if pa.P() != pb.P() {
		return 0, fmt.Errorf("engine: subspace angle across vector lengths %d and %d", pa.P(), pb.P())
	}
	k := a.opts.K
	if bk := b.opts.K; bk < k {
		k = bk
	}
	if k > pa.Components.Cols() || k > pb.Components.Cols() {
		return 0, fmt.Errorf("engine: subspace angle needs %d kept axes on both models", k)
	}
	// Largest angle = acos of the smallest singular value of A^T B; the
	// squared singular values are the eigenvalues of (A^T B)^T (A^T B).
	cross := mat.Mul(pa.TopComponents(k).T(), pb.TopComponents(k))
	vals, _, err := mat.SymEigen(mat.Mul(cross.T(), cross))
	if err != nil {
		return 0, fmt.Errorf("engine: subspace angle: %w", err)
	}
	c := vals[len(vals)-1]
	if c < 0 {
		c = 0
	}
	c = math.Sqrt(c)
	if c > 1 {
		c = 1
	}
	return math.Acos(c), nil
}

// Updater is a pluggable model lifecycle. One goroutine (the owning lane
// worker) calls Observe, Install and State; Model and Freshness are safe
// from any goroutine.
//
// Observe folds one closed, already-scored bin into the lifecycle. It may
// advance the scoring model itself (incremental tracking) and returns a
// training-window snapshot when a full refit is due. The caller fits that
// window and Installs the result before it scores the next bin; Advance is
// that step. A fit that fails installs nothing, and the next window is due
// RefitEvery bins later. An Observe error is the degraded condition — the
// previous model keeps scoring.
type Updater interface {
	Kind() UpdaterKind
	// Model returns the model that scores the next bin.
	Model() *Model
	// InBand reports whether Observe itself advances the scoring model —
	// true for the incremental tracker, whose per-bin swap means callers
	// must finish scoring a bin before observing it.
	InBand() bool
	Observe(x []float64) (refit *mat.Matrix, err error)
	// Install adopts a non-nil model fitted from a window Observe handed
	// out, at once: it scores the next bin. Under the incremental lifecycle
	// the tracker reseeds from it.
	Install(next *Model)
	Freshness() Freshness
	// State captures the lifecycle's full serializable recovery state
	// (deep copies throughout).
	State() UpdaterState
}

// Advance folds the scored bin x into u and runs a refit that falls due to
// completion — beforeFit if non-nil (a caller's flush, say; its error skips
// the fit), a fit warm-started from the current generation, Install — so the
// next bin is the new generation's first. It returns the first error, and
// every error is the degraded condition: the previous model keeps scoring,
// except after an unconverged fit, which is installed anyway (its last
// iterate is still closer to the window than the generation it replaces).
func Advance(u Updater, x []float64, beforeFit func() error) error {
	win, err := u.Observe(x)
	if err != nil {
		err = fmt.Errorf("update: %w", err)
	}
	if win == nil {
		return err
	}
	var fitErr error
	if beforeFit != nil {
		fitErr = beforeFit()
	}
	if fitErr == nil {
		var next *Model
		if next, fitErr = u.Model().Refit(win); fitErr == nil {
			u.Install(next)
			fitErr = next.FitWarning()
		}
	}
	if fitErr != nil && err == nil {
		err = fmt.Errorf("refit: %w", fitErr)
	}
	return err
}

// UpdaterState is the serializable recovery state of an Updater: plain
// data, validated on restore like any untrusted input. internal/checkpoint's
// codec writes it field by field: a new field needs a line there.
type UpdaterState struct {
	Kind  UpdaterKind
	Model ModelState
	// Window is the rolling refit/drift-correction window, oldest first;
	// nil when full refits are disabled.
	Window [][]float64
	// Since is the number of bins accrued toward the next full refit.
	Since int
	// Tracker carries the incremental tracker's vectors; nil under the
	// refit lifecycle.
	Tracker *TrackerState
}

// NewUpdater wraps a freshly fitted model in the lifecycle of the given
// kind. When RefitEvery > 0 and the model retained its training window,
// the rolling window is pre-seeded from the trailing training rows so the
// first full refit does not wait for a whole window of live traffic.
func NewUpdater(kind UpdaterKind, m *Model, cfg UpdaterConfig) (Updater, error) {
	kind, err := ParseUpdaterKind(string(kind))
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, errors.New("engine: updater needs a fitted model")
	}
	if err := cfg.validate(kind, m.P()); err != nil {
		return nil, err
	}
	switch kind {
	case UpdaterRefit:
		u := newRefitUpdater(m, cfg)
		u.ring.seedFromTrain(m, cfg)
		return u, nil
	default:
		u := newIncrementalUpdater(m, cfg)
		u.ring.seedFromTrain(m, cfg)
		return u, nil
	}
}

// RestoreUpdater reassembles an Updater from a captured State — the crash
// recovery path. The state is untrusted (it crossed a disk): the model,
// window and tracker vectors are all validated before they can reach a
// scoring path. cfg must be coherent with the state's kind. Like Restore,
// the updater keeps the state's model slices, and it keeps the window rows
// the way Submit keeps its vectors: the ring only swaps row references and
// a refit copies them out, so nothing writes into them, but the caller must
// not either. The tracker is copied, since tracking moves it in place.
func RestoreUpdater(st UpdaterState, cfg UpdaterConfig) (Updater, error) {
	kind, err := ParseUpdaterKind(string(st.Kind))
	if err != nil {
		return nil, err
	}
	m, err := Restore(st.Model)
	if err != nil {
		return nil, err
	}
	if err := cfg.validate(kind, m.P()); err != nil {
		return nil, err
	}
	if cfg.RefitEvery > 0 {
		if len(st.Window) > cfg.Window {
			return nil, fmt.Errorf("engine: restored window of %d rows exceeds configured window %d", len(st.Window), cfg.Window)
		}
		if st.Since < 0 {
			return nil, fmt.Errorf("engine: negative restored refit phase %d", st.Since)
		}
		if err := finiteRows(st.Window, m.P(), "window"); err != nil {
			return nil, err
		}
	}
	switch kind {
	case UpdaterRefit:
		if st.Tracker != nil {
			return nil, errors.New("engine: refit updater state carries tracker state")
		}
		u := newRefitUpdater(m, cfg)
		if cfg.RefitEvery > 0 {
			u.ring.seed(st.Window)
			u.ring.since = st.Since
		}
		return u, nil
	default:
		return restoreIncremental(m, st, cfg)
	}
}

// winRing is the rolling window shared by both lifecycles: a fixed ring of
// accepted-bin row references plus the phase counter toward the next full
// refit. Owned by the Observe goroutine.
type winRing struct {
	rows  [][]float64
	next  int
	fill  int
	since int
	p     int
}

func newWinRing(window, p int) winRing {
	r := winRing{p: p}
	if window > 0 {
		r.rows = make([][]float64, window)
	}
	return r
}

// seed pre-fills the ring with rows, oldest first (trailing training rows
// on a fresh start, the captured window on a restore).
func (r *winRing) seed(rows [][]float64) {
	if r.rows == nil {
		return
	}
	n := len(rows)
	if n > len(r.rows) {
		rows = rows[n-len(r.rows):]
		n = len(r.rows)
	}
	copy(r.rows, rows)
	r.next = n % len(r.rows)
	r.fill = n
}

// seedFromTrain seeds the ring from the model's retained training window
// (the engine keeps a reference, not a copy).
func (r *winRing) seedFromTrain(m *Model, cfg UpdaterConfig) {
	t := m.Train()
	if r.rows == nil || t == nil {
		return
	}
	n := t.Rows()
	if n > cfg.Window {
		n = cfg.Window
	}
	rows := make([][]float64, n)
	for j := 0; j < n; j++ {
		rows[j] = t.RowView(t.Rows() - n + j)
	}
	r.seed(rows)
}

// push appends one accepted bin and reports whether a full refit is due
// (cadence reached on a full ring).
func (r *winRing) push(x []float64, refitEvery int) (due bool) {
	if r.rows == nil {
		return false
	}
	r.rows[r.next] = x
	r.next = (r.next + 1) % len(r.rows)
	if r.fill < len(r.rows) {
		r.fill++
	}
	r.since++
	return r.since >= refitEvery && r.fill == len(r.rows)
}

// snapshot copies the window out in storage order (row order does not
// affect a PCA fit) and resets the phase counter.
func (r *winRing) snapshot() *mat.Matrix {
	snap := mat.New(r.fill, r.p)
	for i := 0; i < r.fill; i++ {
		copy(snap.RowView(i), r.rows[i])
	}
	r.since = 0
	return snap
}

// chron returns deep copies of the window rows in chronological order,
// oldest first — the serializable form. The copies share one allocation,
// each row capped at its own end.
func (r *winRing) chron() [][]float64 {
	if r.rows == nil {
		return nil
	}
	out := make([][]float64, r.fill)
	flat := make([]float64, r.fill*r.p)
	for i := range out {
		row := flat[i*r.p : (i+1)*r.p : (i+1)*r.p]
		copy(row, r.rows[(r.next-r.fill+i+len(r.rows))%len(r.rows)])
		out[i] = row
	}
	return out
}

// RefitUpdater is the generation-swap lifecycle: Observe maintains the
// rolling window and, every RefitEvery accepted bins, hands out a snapshot
// for a warm-started refit; Install swaps the fitted generation in. Between
// swaps the scoring model does not move. The model and the staleness gauge
// are atomics because Model and Freshness are read from other goroutines.
type RefitUpdater struct {
	model      atomic.Pointer[Model]
	refitEvery int
	ring       winRing

	// sinceSwap counts observed bins since the last adopted refit — the
	// staleness gauge.
	sinceSwap atomic.Int64
}

func newRefitUpdater(m *Model, cfg UpdaterConfig) *RefitUpdater {
	u := &RefitUpdater{refitEvery: cfg.RefitEvery}
	u.model.Store(m)
	if cfg.RefitEvery > 0 {
		u.ring = newWinRing(cfg.Window, m.P())
	}
	return u
}

// Kind returns UpdaterRefit.
func (u *RefitUpdater) Kind() UpdaterKind { return UpdaterRefit }

// InBand returns false: the scoring model only moves on Install.
func (u *RefitUpdater) InBand() bool { return false }

// Model returns the current scoring generation.
func (u *RefitUpdater) Model() *Model { return u.model.Load() }

// Observe appends the bin to the rolling window and returns a snapshot
// when a refit is due.
func (u *RefitUpdater) Observe(x []float64) (*mat.Matrix, error) {
	if len(x) != u.Model().P() {
		return nil, fmt.Errorf("engine: updater vector length %d, want %d", len(x), u.Model().P())
	}
	u.sinceSwap.Add(1)
	if !u.ring.push(x, u.refitEvery) {
		return nil, nil
	}
	return u.ring.snapshot(), nil
}

// Install adopts a refit generation.
func (u *RefitUpdater) Install(next *Model) {
	u.model.Store(next)
	u.sinceSwap.Store(0)
}

// Freshness reports the generation-swap gauges: staleness equals the bins
// since the last adopted refit.
func (u *RefitUpdater) Freshness() Freshness {
	s := int(u.sinceSwap.Load())
	return Freshness{Kind: UpdaterRefit, Gen: u.Model().Gen(), SinceCorrection: s, Staleness: s}
}

// State captures the lifecycle's serializable recovery state.
func (u *RefitUpdater) State() UpdaterState {
	return UpdaterState{
		Kind:   UpdaterRefit,
		Model:  u.Model().State(),
		Window: u.ring.chron(),
		Since:  u.ring.since,
	}
}

// finiteRows validates a restored [][]float64 payload.
func finiteRows(rows [][]float64, p int, what string) error {
	for i, row := range rows {
		if len(row) != p {
			return fmt.Errorf("engine: restore: %s row %d has length %d, want %d", what, i, len(row), p)
		}
		for _, v := range row {
			if !Restorable(v) {
				return fmt.Errorf("engine: restore: non-finite value in %s row %d", what, i)
			}
		}
	}
	return nil
}
