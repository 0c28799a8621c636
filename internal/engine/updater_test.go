package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"netwide/internal/mat"
)

// synthRich builds genuinely stationary traffic with r spectrally
// separated factors: iid Gaussian factor scores with geometrically
// decaying scale on fixed random loadings. synthTraffic's sinusoidal
// patterns are NOT stationary over sub-cycle windows (their sample
// cross-correlations rotate the trailing eigenvectors between windows),
// and it has only two structured factors anyway, leaving k=4 fits with
// noise directions that differ arbitrarily between samples.
func synthRich(rng *rand.Rand, n, p, r int, noise float64) *mat.Matrix {
	// Orthonormal random loadings scaled to sqrt(p), so factor f
	// contributes eigenvalue (60·0.5^f)²·p exactly — consecutive
	// eigenvalue ratios of 4 keep every tracked direction identifiable.
	loads := make([][]float64, r)
	for f := range loads {
		v := make([]float64, p)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		for _, prev := range loads[:f] {
			var dot float64
			for j := range v {
				dot += v[j] * prev[j]
			}
			for j := range v {
				v[j] -= dot / float64(p) * prev[j]
			}
		}
		var nv float64
		for _, c := range v {
			nv += c * c
		}
		scale := math.Sqrt(float64(p) / nv)
		for j := range v {
			v[j] *= scale
		}
		loads[f] = v
	}
	m := mat.New(n, p)
	for i := 0; i < n; i++ {
		row := m.RowView(i)
		for j := range row {
			row[j] = 100 + noise*rng.NormFloat64()
		}
		for f := 0; f < r; f++ {
			s := 60 * math.Pow(0.5, float64(f)) * rng.NormFloat64()
			for j := range row {
				row[j] += s * loads[f][j]
			}
		}
	}
	return m
}

func fitOn(t *testing.T, train *mat.Matrix) *Model {
	t.Helper()
	m, err := Fit(train, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseUpdaterKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want UpdaterKind
	}{{"", UpdaterRefit}, {"refit", UpdaterRefit}, {"incremental", UpdaterIncremental}} {
		got, err := ParseUpdaterKind(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseUpdaterKind(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseUpdaterKind("oja"); err == nil {
		t.Error("unknown updater kind accepted")
	}
}

// TestUpdaterConfigValidation pins the descriptive errors for incoherent
// kind/RefitEvery/Window combinations.
func TestUpdaterConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(40, 41))
	m := fitOn(t, synthTraffic(rng, 200, 8, 1)) // p = 8
	cases := []struct {
		name string
		kind UpdaterKind
		cfg  UpdaterConfig
		want string // error substring; "" = must be accepted
	}{
		{"refit defaults", UpdaterRefit, UpdaterConfig{}, ""},
		{"refit with window", UpdaterRefit, UpdaterConfig{RefitEvery: 10, Window: 40}, ""},
		{"incremental no window", UpdaterIncremental, UpdaterConfig{}, ""},
		{"incremental with horizon", UpdaterIncremental, UpdaterConfig{Window: 40}, ""},
		{"incremental drift-corrected", UpdaterIncremental, UpdaterConfig{RefitEvery: 20, Window: 40}, ""},
		{"negative cadence", UpdaterRefit, UpdaterConfig{RefitEvery: -1}, "negative refit cadence"},
		{"negative window", UpdaterRefit, UpdaterConfig{Window: -1}, "negative window"},
		{"correction without window", UpdaterRefit, UpdaterConfig{RefitEvery: 10}, "Window=0 disables"},
		{"incremental correction without window", UpdaterIncremental, UpdaterConfig{RefitEvery: 10}, "Window=0 disables"},
		{"refit window too small", UpdaterRefit, UpdaterConfig{RefitEvery: 10, Window: 8}, "must exceed the vector length"},
		{"window without cadence", UpdaterRefit, UpdaterConfig{Window: 40}, "never refits"},
		{"incremental horizon too small", UpdaterIncremental, UpdaterConfig{Window: 8}, "forgetting horizon"},
	}
	for _, tc := range cases {
		_, err := NewUpdater(tc.kind, m, tc.cfg)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestRefitUpdaterLifecycle pins the generation-swap behavior: one
// snapshot per cadence on a full window, Install swaps the generation and
// resets the staleness gauge, and the next window is due RefitEvery bins
// after the last one was handed out.
func TestRefitUpdaterLifecycle(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 43))
	train := synthTraffic(rng, 60, 8, 1)
	m := fitOn(t, train)
	up, err := NewUpdater(UpdaterRefit, m, UpdaterConfig{RefitEvery: 10, Window: 20})
	if err != nil {
		t.Fatal(err)
	}
	if up.Kind() != UpdaterRefit || up.InBand() {
		t.Fatalf("refit updater reports kind %q inBand %v", up.Kind(), up.InBand())
	}
	live := synthTraffic(rng, 100, 8, 1)
	var snaps []*mat.Matrix
	for i := 0; i < 10; i++ {
		snap, err := up.Observe(live.RowView(i))
		if err != nil {
			t.Fatal(err)
		}
		if snap != nil {
			if i != 9 {
				t.Fatalf("snapshot handed out at bin %d, want bin 9", i)
			}
			snaps = append(snaps, snap)
		}
	}
	if len(snaps) != 1 {
		t.Fatalf("10 bins at cadence 10 handed out %d snapshots, want 1", len(snaps))
	}
	if r, c := snaps[0].Rows(), snaps[0].Cols(); r != 20 || c != 8 {
		t.Fatalf("snapshot is %dx%d, want 20x8 (window seeded from training tail)", r, c)
	}
	fr := up.Freshness()
	if fr.Gen != 0 || fr.Staleness != 10 || fr.SinceCorrection != 10 {
		t.Fatalf("pre-swap freshness = %+v, want gen 0, staleness 10", fr)
	}
	next, err := up.Model().Refit(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	up.Install(next)
	if g := up.Model().Gen(); g != 1 {
		t.Fatalf("generation after install = %d, want 1", g)
	}
	if fr := up.Freshness(); fr.Staleness != 0 {
		t.Fatalf("staleness after install = %d, want 0", fr.Staleness)
	}
	if st := up.State(); st.Since != 0 || st.Model.Gen != 1 {
		t.Fatalf("state after install: since %d, gen %d; want 0, 1", st.Since, st.Model.Gen)
	}
	for i := 10; i < 20; i++ {
		snap, err := up.Observe(live.RowView(i))
		if err != nil {
			t.Fatal(err)
		}
		if (snap != nil) != (i == 19) {
			t.Fatalf("bin %d: snapshot %v, want one at bin 19 only", i, snap != nil)
		}
	}
}

// TestAdvanceInstallsBeforeTheNextBin: Advance runs a due refit to
// completion — beforeFit, the warm fit, Install — inside the step that
// observed the refit-due bin, so the next bin sees the new generation; a
// beforeFit error skips the fit and is reported as a refit failure, and
// the window after it is due a full cadence later.
func TestAdvanceInstallsBeforeTheNextBin(t *testing.T) {
	rng := rand.New(rand.NewPCG(56, 57))
	const n, p = 200, 8
	all := synthTraffic(rng, n+40, p, 1)
	for _, kind := range []UpdaterKind{UpdaterRefit, UpdaterIncremental} {
		up, err := NewUpdater(kind, fitOn(t, all.HeadRows(n)), UpdaterConfig{RefitEvery: 10, Window: 40})
		if err != nil {
			t.Fatal(err)
		}
		var calls []int
		fail := false
		for i := 0; i < 30; i++ {
			bin := i
			err := Advance(up, all.RowView(n+i), func() error {
				calls = append(calls, bin)
				if fail {
					return errors.New("held back")
				}
				return nil
			})
			// Fits land at bins 9 and 29; the one due at bin 19 is held back.
			want := uint64(0)
			switch {
			case i >= 29:
				want = 2
			case i >= 9:
				want = 1
			}
			if up.Model().Gen() != want {
				t.Fatalf("%s: after bin %d generation %d, want %d", kind, i, up.Model().Gen(), want)
			}
			if i == 19 {
				if err == nil || !strings.Contains(err.Error(), "refit: held back") {
					t.Fatalf("%s: bin 19 Advance = %v, want the beforeFit error as a refit failure", kind, err)
				}
				if kind == UpdaterIncremental && up.Freshness().SinceCorrection != 10 {
					t.Fatalf("incremental freshness %+v: a held-back correction must not reset the update count", up.Freshness())
				}
			} else if err != nil {
				t.Fatalf("%s: bin %d: %v", kind, i, err)
			}
			fail = i == 18
		}
		if !slices.Equal(calls, []int{9, 19, 29}) {
			t.Fatalf("%s: beforeFit ran at bins %v, want [9 19 29]", kind, calls)
		}
	}
}

// subspaceAngle returns the largest principal angle (radians) between the
// column spaces of two p x k orthonormal bases: acos of the smallest
// singular value of A^T B.
func subspaceAngle(t *testing.T, a, b *mat.Matrix) float64 {
	t.Helper()
	cross := mat.Mul(a.T(), b)      // k x k
	g := mat.Mul(cross.T(), cross)  // k x k, eigenvalues = squared singular values
	vals, _, err := mat.SymEigen(g) // descending
	if err != nil {
		t.Fatal(err)
	}
	min := vals[len(vals)-1]
	if min < 0 {
		min = 0
	}
	c := math.Sqrt(min)
	if c > 1 {
		c = 1
	}
	return math.Acos(c)
}

// TestIncrementalStationarySubspace is the drift-free property test: on a
// stationary window the per-bin tracker must preserve the fitted subspace
// — the largest principal angle between the tracked top-k basis and the
// seed fit's stays near zero, and the thresholds stay in the same regime.
func TestIncrementalStationarySubspace(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 45))
	// A generous forgetting horizon keeps the amnesic weight (1+l)/n small
	// so the tracker's stochastic-approximation noise settles near zero on
	// stationary input instead of hovering at the short-horizon noise floor.
	const n, p, extra = 600, 24, 2000
	all := synthRich(rng, n+extra, p, 6, 2)
	seed := fitOn(t, all.HeadRows(n))
	up, err := NewUpdater(UpdaterIncremental, seed, UpdaterConfig{Window: 4032})
	if err != nil {
		t.Fatal(err)
	}
	if !up.InBand() {
		t.Fatal("incremental updater must be in-band")
	}
	for i := n; i < n+extra; i++ {
		if _, err := up.Observe(all.RowView(i)); err != nil {
			t.Fatal(err)
		}
	}
	k := seed.Opts().K
	angle := subspaceAngle(t, seed.PCA().TopComponents(k), up.Model().PCA().TopComponents(k))
	if angle > 0.1 {
		t.Errorf("largest principal angle after %d stationary updates = %.4f rad, want ~0 (<= 0.1)", extra, angle)
	}
	q0, t20 := seed.Limits()
	q1, t21 := up.Model().Limits()
	if q1 < q0/3 || q1 > q0*3 {
		t.Errorf("stationary tracking moved the Q limit %.4g -> %.4g (want within 3x)", q0, q1)
	}
	if t21 < t20/3 || t21 > t20*3 {
		t.Errorf("stationary tracking moved the T2 limit %.4g -> %.4g (want within 3x)", t20, t21)
	}
	fr := up.Freshness()
	if fr.Updates != extra || fr.Staleness != 1 || fr.Gen != 0 {
		t.Errorf("freshness = %+v, want %d updates, staleness 1, gen 0", fr, extra)
	}
	if got := up.Model().Updates(); got != extra {
		t.Errorf("model updates counter = %d, want %d", got, extra)
	}
}

// TestIncrementalDivergenceBound documents the divergence bound the
// streaming parity suite relies on: after a window of per-bin updates the
// tracked subspace stays within a small principal angle of the exact
// batch refit over the same rolling window.
func TestIncrementalDivergenceBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(46, 47))
	const n, p, window = 600, 24, 600
	all := synthRich(rng, n+window, p, 6, 2)
	seed := fitOn(t, all.HeadRows(n))
	up, err := NewUpdater(UpdaterIncremental, seed, UpdaterConfig{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	for i := n; i < n+window; i++ {
		if _, err := up.Observe(all.RowView(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Exact refit over the same trailing window the tracker just absorbed.
	exactWin := mat.New(window, p)
	for i := 0; i < window; i++ {
		copy(exactWin.RowView(i), all.RowView(n+i))
	}
	exact, err := seed.Refit(exactWin)
	if err != nil {
		t.Fatal(err)
	}
	k := seed.Opts().K
	angle := subspaceAngle(t, exact.PCA().TopComponents(k), up.Model().PCA().TopComponents(k))
	const bound = 0.35 // radians; documented in DESIGN.md E19
	if angle > bound {
		t.Errorf("tracked vs exact-refit largest principal angle = %.4f rad, want <= %.2f", angle, bound)
	}
	// The exported divergence metric must agree with the test's own
	// computation — it is the API callers monitor this bound through.
	got, err := SubspaceAngle(up.Model(), exact)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-angle) > 1e-9 {
		t.Errorf("SubspaceAngle = %.6f rad, test helper computed %.6f", got, angle)
	}
	if _, err := SubspaceAngle(up.Model(), fitOn(t, synthRich(rng, 80, p+1, 4, 2).HeadRows(80))); err == nil {
		t.Error("SubspaceAngle across different vector lengths did not error")
	}
}

// TestIncrementalDetectsSpike: threshold maintenance keeps the tracker a
// working detector — a volume spike on one flow still alarms after many
// per-bin updates.
func TestIncrementalDetectsSpike(t *testing.T) {
	rng := rand.New(rand.NewPCG(48, 49))
	const n, p = 600, 24
	all := synthTraffic(rng, n+200, p, 2)
	seed := fitOn(t, all.HeadRows(n))
	up, err := NewUpdater(UpdaterIncremental, seed, UpdaterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := n; i < n+200; i++ {
		if _, err := up.Observe(all.RowView(i)); err != nil {
			t.Fatal(err)
		}
	}
	x := append([]float64(nil), all.RowView(n+199)...)
	x[5] += 800
	pt, err := up.Model().Score(x)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.SPEAlarm {
		t.Errorf("spiked vector did not alarm after 200 updates (SPE %.4g, limit %.4g)", pt.SPE, mustQ(up.Model()))
	}
	if pt.TopResidualOD != 5 {
		t.Errorf("top residual OD = %d, want 5", pt.TopResidualOD)
	}
}

func mustQ(m *Model) float64 { q, _ := m.Limits(); return q }

// TestIncrementalStalenessCountsFailedUpdates: Staleness counts the bins
// observed since the scoring model was published — 1 while the per-bin
// updates succeed, one more per bin whose update failed (a NaN leaves the
// tracker's mean non-finite, so every update after it fails as well), 0
// once a model is installed, and 1 again after the next bin publishes.
func TestIncrementalStalenessCountsFailedUpdates(t *testing.T) {
	rng := rand.New(rand.NewPCG(60, 61))
	const n, p = 200, 8
	all := synthTraffic(rng, n+10, p, 1)
	seed := fitOn(t, all.HeadRows(n))
	up, err := NewUpdater(UpdaterIncremental, seed, UpdaterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	staleness := func(want int, when string) {
		t.Helper()
		if fr := up.Freshness(); fr.Staleness != want {
			t.Fatalf("%s: freshness %+v, want staleness %d", when, fr, want)
		}
	}
	staleness(0, "fresh fit")
	if _, err := up.Observe(all.RowView(n)); err != nil {
		t.Fatal(err)
	}
	staleness(1, "after a published bin")
	poisoned := all.Row(n + 1)
	poisoned[3] = math.NaN()
	for i, x := range [][]float64{poisoned, all.RowView(n + 2), all.RowView(n + 3)} {
		if _, err := up.Observe(x); err == nil {
			t.Fatalf("update %d after the NaN published", i)
		}
		staleness(2+i, fmt.Sprintf("after %d failed updates", i+1))
	}
	if u := up.Model().Updates(); u != 1 {
		t.Fatalf("scoring model holds %d updates, want the 1 before the NaN", u)
	}
	up.Install(seed)
	staleness(0, "after Install")
	if _, err := up.Observe(all.RowView(n + 4)); err != nil {
		t.Fatalf("update after Install reseeded the tracker: %v", err)
	}
	staleness(1, "after the next published bin")
}

// TestIncrementalDriftCorrection: with RefitEvery > 0 the incremental
// updater hands out window snapshots on cadence, and an installed exact
// refit is adopted at once — generation bumps, the update counter resets,
// the tracker reseeds from the corrected basis, and the correction itself
// scores the next bin.
func TestIncrementalDriftCorrection(t *testing.T) {
	rng := rand.New(rand.NewPCG(50, 51))
	const n, p = 200, 8
	all := synthTraffic(rng, n+100, p, 1)
	seed := fitOn(t, all.HeadRows(n))
	up, err := NewUpdater(UpdaterIncremental, seed, UpdaterConfig{RefitEvery: 10, Window: 40})
	if err != nil {
		t.Fatal(err)
	}
	var snap *mat.Matrix
	bin := n
	for ; snap == nil && bin < n+20; bin++ {
		if snap, err = up.Observe(all.RowView(bin)); err != nil {
			t.Fatal(err)
		}
	}
	if snap == nil || bin != n+10 {
		t.Fatalf("drift-correction snapshot after %d bins, want one after 10", bin-n)
	}
	next, err := up.Model().Refit(snap)
	if err != nil {
		t.Fatal(err)
	}
	up.Install(next)
	if up.Model() != next {
		t.Fatal("installed correction is not the scoring model")
	}
	if fr := up.Freshness(); fr.Gen != 1 || fr.Updates != 0 || fr.Staleness != 0 {
		t.Fatalf("freshness right after the correction = %+v, want gen 1, no updates, staleness 0", fr)
	}
	if _, err := up.Observe(all.RowView(bin)); err != nil {
		t.Fatal(err)
	}
	if g := up.Model().Gen(); g != 1 {
		t.Fatalf("generation after the next bin = %d, want 1", g)
	}
	if u := up.Model().Updates(); u != 1 {
		t.Fatalf("updates after the next bin = %d, want 1", u)
	}
	fr := up.Freshness()
	if fr.Gen != 1 || fr.SinceCorrection != 1 {
		t.Fatalf("freshness after correction = %+v", fr)
	}
}

// TestUpdaterStateRoundTrip: an updater restored from State must publish
// bit-identical models for identical subsequent input, for both kinds.
func TestUpdaterStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(52, 53))
	const n, p = 200, 8
	all := synthTraffic(rng, n+80, p, 1)
	seed := fitOn(t, all.HeadRows(n))
	for _, kind := range []UpdaterKind{UpdaterRefit, UpdaterIncremental} {
		cfg := UpdaterConfig{RefitEvery: 25, Window: 40}
		up, err := NewUpdater(kind, seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := n; i < n+20; i++ {
			if _, err := up.Observe(all.RowView(i)); err != nil {
				t.Fatal(err)
			}
		}
		restored, err := RestoreUpdater(up.State(), cfg)
		if err != nil {
			t.Fatalf("%s: restore: %v", kind, err)
		}
		if restored.Kind() != kind {
			t.Fatalf("restored kind %q, want %q", restored.Kind(), kind)
		}
		for i := n + 20; i < n+80; i++ {
			s1, e1 := up.Observe(all.RowView(i))
			s2, e2 := restored.Observe(all.RowView(i))
			if (s1 == nil) != (s2 == nil) || (e1 == nil) != (e2 == nil) {
				t.Fatalf("%s: hand-off/error divergence at bin %d", kind, i)
			}
		}
		x := all.RowView(n + 40)
		pt1, err1 := up.Model().Score(x)
		pt2, err2 := restored.Model().Score(x)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if pt1 != pt2 {
			t.Errorf("%s: restored updater diverged: %+v vs %+v", kind, pt1, pt2)
		}
	}
}

// TestRestoreUpdaterValidation: corrupted states are refused with errors,
// never panics.
func TestRestoreUpdaterValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(54, 55))
	seed := fitOn(t, synthTraffic(rng, 200, 8, 1))
	cfg := UpdaterConfig{RefitEvery: 10, Window: 40}
	up, err := NewUpdater(UpdaterIncremental, seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := up.State()
	mutate := []struct {
		name string
		f    func(st *UpdaterState)
	}{
		{"unknown kind", func(st *UpdaterState) { st.Kind = "sketchy" }},
		{"no tracker", func(st *UpdaterState) { st.Tracker = nil }},
		{"tracker on refit state", func(st *UpdaterState) { st.Kind = UpdaterRefit }},
		{"short mean", func(st *UpdaterState) { st.Tracker.Mean = st.Tracker.Mean[:3] }},
		{"NaN mean", func(st *UpdaterState) { st.Tracker.Mean[0] = math.NaN() }},
		// What FuzzRestore found: finite, accepted, and +Inf in the trace
		// one bin later.
		{"absurd mean", func(st *UpdaterState) { st.Tracker.Mean[1] = 3e296 }},
		{"NaN in window", func(st *UpdaterState) {
			st.Window[0] = append([]float64(nil), st.Window[0]...)
			st.Window[0][0] = math.NaN()
		}},
		{"no axes", func(st *UpdaterState) { st.Tracker.Axes = nil }},
		{"too many axes", func(st *UpdaterState) {
			for len(st.Tracker.Axes) <= len(st.Model.Mean) {
				st.Tracker.Axes = append(st.Tracker.Axes, make([]float64, len(st.Model.Mean)))
			}
		}},
		{"ragged axis", func(st *UpdaterState) { st.Tracker.Axes[0] = st.Tracker.Axes[0][:2] }},
		{"Inf axis", func(st *UpdaterState) { st.Tracker.Axes[0][0] = math.Inf(1) }},
		{"bad horizon", func(st *UpdaterState) { st.Tracker.Horizon = 1 }},
		{"count over horizon", func(st *UpdaterState) { st.Tracker.N = st.Tracker.Horizon + 1 }},
		{"negative trace", func(st *UpdaterState) { st.Tracker.TotalVar = -1 }},
		{"negative since", func(st *UpdaterState) { st.Since = -1 }},
		{"oversized window", func(st *UpdaterState) {
			for len(st.Window) <= 40 {
				st.Window = append(st.Window, make([]float64, 8))
			}
		}},
		{"ragged window", func(st *UpdaterState) { st.Window = append(st.Window, make([]float64, 5)) }},
	}
	for _, tc := range mutate {
		st := good
		st.Model = good.Model // shallow copy is fine; mutations below clone what they touch
		tr := *good.Tracker
		tr.Mean = append([]float64(nil), good.Tracker.Mean...)
		tr.Axes = make([][]float64, len(good.Tracker.Axes))
		for i, a := range good.Tracker.Axes {
			tr.Axes[i] = append([]float64(nil), a...)
		}
		st.Tracker = &tr
		st.Window = append([][]float64(nil), good.Window...)
		tc.f(&st)
		if _, err := RestoreUpdater(st, cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The untouched state must restore.
	if _, err := RestoreUpdater(good, cfg); err != nil {
		t.Errorf("pristine state rejected: %v", err)
	}
}
