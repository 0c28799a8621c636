package engine

// The restore and publish paths build every Model through newModel and copy
// each model float once. The bodies they replaced are kept below as the
// ref* oracles, and the new paths must reproduce them bit for bit: the
// models they build (PCA, thresholds, normal-subspace basis), the states
// they capture and the tracker they seed.

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"netwide/internal/mat"
	"netwide/internal/stats"
)

// refBasis is the normal-subspace basis as fit, publish and Restore built it
// before newModel: TopComponents down the columns, then a transpose.
func refBasis(pca *mat.PCA, k int) (vk, vkT *mat.Matrix) {
	vk = pca.TopComponents(k)
	return vk, vk.T()
}

// refState is Model.State from before the components were stored
// row-major: one copy per row, returned beside the state (whose Components
// it leaves nil).
func refState(m *Model) (ModelState, [][]float64) {
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
	}
	rows := make([][]float64, p)
	for i := 0; i < p; i++ {
		rows[i] = append([]float64(nil), m.pca.Components.RowView(i)...)
	}
	return st, rows
}

// refRestore is Restore's assembly from before it adopted the components:
// the rows copied by NewFromRows, the basis by refBasis.
func refRestore(st ModelState) (*Model, error) {
	c := len(st.Components) / len(st.Mean)
	rows := make([][]float64, len(st.Mean))
	for i := range rows {
		rows[i] = st.Components[i*c : (i+1)*c]
	}
	comps, err := mat.NewFromRows(rows)
	if err != nil {
		return nil, fmt.Errorf("engine: restore: components: %w", err)
	}
	pca, err := mat.NewPCA(st.Mean, st.Eigenvalues, comps, st.TotalVar, st.N)
	if err != nil {
		return nil, fmt.Errorf("engine: restore: %w", err)
	}
	vk, vkT := refBasis(pca, st.Opts.K)
	return &Model{
		opts: st.Opts, pca: pca,
		qLimit: st.QLimit, t2Limit: st.T2Limit,
		vk: vk, vkT: vkT,
		gen: st.Gen, updates: st.Updates,
	}, nil
}

// refPublish is publish's body from before it filled the components row by
// row and cached the T² limit: the components Set down each column, the
// limit computed afresh. It returns the model instead of swapping it in.
func refPublish(u *IncrementalUpdater) (*Model, error) {
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
			continue
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
		return nil, err
	}
	phi1, phi2, phi3 := pca.ResidualMoments(u.opts.K)
	qLimit, err := stats.QThresholdFromMoments(phi1, phi2, phi3, u.opts.Alpha)
	if err != nil {
		return nil, fmt.Errorf("Q threshold: %w", err)
	}
	t2Limit, err := stats.T2Threshold(u.opts.K, u.n, u.opts.Alpha)
	if err != nil {
		return nil, fmt.Errorf("T2 threshold: %w", err)
	}
	vk, vkT := refBasis(pca, u.opts.K)
	return &Model{
		opts: u.opts, pca: pca,
		qLimit: qLimit, t2Limit: t2Limit,
		vk: vk, vkT: vkT,
		gen: cur.gen, updates: cur.updates + 1,
	}, nil
}

// refSeedTracker is seedTracker's body from before it read the components
// row by row: each axis filled by At down its column. It returns the mean
// and m axes it would seed.
func refSeedTracker(m *Model, nAxes int) (mean []float64, axes [][]float64) {
	pca := m.PCA()
	mean = append(mean, pca.Mean...)
	axes = make([][]float64, nAxes)
	for i := range axes {
		axes[i] = make([]float64, pca.P())
		l := pca.Eigenvalues[i]
		for f := range axes[i] {
			axes[i][f] = pca.Components.At(f, i) * l
		}
	}
	return mean, axes
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameMatrix(a, b *mat.Matrix) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		if !sameBits(a.RowView(i), b.RowView(i)) {
			return false
		}
	}
	return true
}

// sameModel reports the first difference between two models, bit for bit.
func sameModel(got, want *Model) error {
	gp, wp := got.pca, want.pca
	switch {
	case got.opts != want.opts || got.gen != want.gen || got.updates != want.updates:
		return fmt.Errorf("opts/gen/updates %+v/%d/%d, want %+v/%d/%d", got.opts, got.gen, got.updates, want.opts, want.gen, want.updates)
	case !sameBits([]float64{got.qLimit, got.t2Limit}, []float64{want.qLimit, want.t2Limit}):
		return fmt.Errorf("limits (%v, %v), want (%v, %v)", got.qLimit, got.t2Limit, want.qLimit, want.t2Limit)
	case gp.P() != wp.P() || gp.N() != wp.N() || !sameBits([]float64{gp.TotalVar}, []float64{wp.TotalVar}):
		return fmt.Errorf("PCA p/n/trace %d/%d/%v, want %d/%d/%v", gp.P(), gp.N(), gp.TotalVar, wp.P(), wp.N(), wp.TotalVar)
	case !sameBits(gp.Mean, wp.Mean):
		return errors.New("mean differs")
	case !sameBits(gp.Eigenvalues, wp.Eigenvalues):
		return errors.New("eigenvalues differ")
	case !sameMatrix(gp.Components, wp.Components):
		return errors.New("components differ")
	case !sameMatrix(got.vk, want.vk):
		return errors.New("vk differs")
	case !sameMatrix(got.vkT, want.vkT):
		return errors.New("vkT differs")
	}
	return nil
}

// TestModelMatchesReference: a fitted model's basis, its State and the
// model Restore rebuilds from that state equal their oracles bit for bit,
// on the full-PCA path and the partial one.
func TestModelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 92))
	for _, shape := range [][2]int{{400, 10}, {300, 121}, {120, 600}} {
		m, err := Fit(synthTraffic(rng, shape[0], shape[1], 2), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		vk, vkT := refBasis(m.pca, m.opts.K)
		if !sameMatrix(m.vk, vk) || !sameMatrix(m.vkT, vkT) {
			t.Fatalf("%dx%d: fit's basis differs from TopComponents and its transpose", shape[0], shape[1])
		}

		// The state's basis is p x the kept columns, not p x the spectrum.
		st := m.State()
		wantSt, rows := refState(m)
		c := m.pca.Components.Cols()
		flatRows := make([][]float64, len(st.Mean))
		for i := range flatRows {
			flatRows[i] = st.Components[i*c : (i+1)*c]
		}
		if !sameBits(st.Mean, wantSt.Mean) || !sameBits(st.Eigenvalues, wantSt.Eigenvalues) || !sameRows(flatRows, rows) ||
			st.Opts != wantSt.Opts || st.Gen != wantSt.Gen || st.Updates != wantSt.Updates || st.N != wantSt.N ||
			!sameBits([]float64{st.QLimit, st.T2Limit, st.TotalVar}, []float64{wantSt.QLimit, wantSt.T2Limit, wantSt.TotalVar}) {
			t.Fatalf("%dx%d: State differs from refState", shape[0], shape[1])
		}

		r, err := Restore(st)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refRestore(st)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameModel(r, want); err != nil {
			t.Fatalf("%dx%d: Restore vs refRestore: %v", shape[0], shape[1], err)
		}
		if err := sameModel(r, m); err != nil {
			t.Fatalf("%dx%d: restored vs fitted model: %v", shape[0], shape[1], err)
		}
	}
}

// TestIncrementalMatchesReference: the tracker seeded from a fit, every
// published model (with lost directions and tied eigenvalues among them), a
// drift correction's reseed, the captured state and the restored tracker
// all equal their oracles bit for bit.
func TestIncrementalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(93, 94))
	for _, shape := range []struct{ n, p, refitEvery, window int }{
		{200, 8, 20, 60}, {300, 121, 0, 0}, {150, 600, 0, 0},
	} {
		name := fmt.Sprintf("%dx%d", shape.n, shape.p)
		all := synthRich(rng, shape.n+60, shape.p, 4, 1)
		cfg := UpdaterConfig{RefitEvery: shape.refitEvery, Window: shape.window}
		up, err := NewUpdater(UpdaterIncremental, fitOn(t, all.HeadRows(shape.n)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		u := up.(*IncrementalUpdater)
		checkSeed := func(when string) {
			t.Helper()
			mean, axes := refSeedTracker(u.Model(), u.m)
			if !sameBits(u.mean, mean) || !sameRows(u.axes, axes) {
				t.Fatalf("%s: tracker seeded %s differs from refSeedTracker", name, when)
			}
		}
		checkSeed("by the fit")
		installed := false
		for bin := shape.n; bin < shape.n+60; bin++ {
			x := all.RowView(bin)
			var snap *mat.Matrix
			if u.ring.push(x, u.refitEvery) {
				snap = u.ring.snapshot()
			}
			u.track(x)
			switch bin - shape.n {
			case 10:
				clear(u.axes[u.m-1]) // a lost direction: a zero column
			case 20:
				copy(u.axes[3], u.axes[2]) // tied eigenvalues keep their order
			}
			want, werr := refPublish(u)
			gerr := u.publish()
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s bin %d: publish error %v, reference %v", name, bin, gerr, werr)
			}
			if err := sameModel(u.Model(), want); err != nil {
				t.Fatalf("%s bin %d: publish vs refPublish: %v", name, bin, err)
			}
			if snap != nil && !installed {
				next, err := u.Model().Refit(snap)
				if err != nil {
					t.Fatal(err)
				}
				u.Install(next)
				checkSeed("by a drift correction")
				installed = true
			}
		}
		if shape.refitEvery > 0 && !installed {
			t.Fatalf("%s: no drift correction was due", name)
		}

		st := u.State()
		if !sameBits(st.Tracker.Mean, u.mean) || !sameRows(st.Tracker.Axes, u.axes) {
			t.Fatalf("%s: State's tracker differs from the updater's", name)
		}
		back, err := RestoreUpdater(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := back.(*IncrementalUpdater)
		if !sameBits(r.mean, u.mean) || !sameRows(r.axes, u.axes) || r.n != u.n || r.totalVar != u.totalVar {
			t.Fatalf("%s: restored tracker differs from the captured one", name)
		}
		if err := sameModel(r.Model(), u.Model()); err != nil {
			t.Fatalf("%s: restored scoring model: %v", name, err)
		}
	}
}

// TestPublishT2LimitTracksCount: the T² limit publish caches equals a fresh
// stats.T2Threshold of the tracker's count after every bin, while the count
// grows to the forgetting horizon, sits there, and grows again after a
// drift correction reseeds it below the horizon.
func TestPublishT2LimitTracksCount(t *testing.T) {
	rng := rand.New(rand.NewPCG(95, 96))
	const p, seedRows, horizon = 8, 60, 100
	all := synthTraffic(rng, 400, p, 1)
	up, err := NewUpdater(UpdaterIncremental, fitOn(t, all.HeadRows(seedRows)), UpdaterConfig{RefitEvery: 50, Window: horizon})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*IncrementalUpdater)
	counts := map[int]bool{}
	reseeded := false
	for bin := seedRows; bin < 400; bin++ {
		snap, err := u.Observe(all.RowView(bin))
		if err != nil {
			t.Fatal(err)
		}
		want, err := stats.T2Threshold(u.opts.K, u.n, u.opts.Alpha)
		if err != nil {
			t.Fatal(err)
		}
		if _, got := u.Model().Limits(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("bin %d (n=%d): published T2 limit %v, fresh %v", bin, u.n, got, want)
		}
		counts[u.n] = true
		if snap != nil && !reseeded {
			// Fitted on fewer rows than the horizon, the correction moves
			// the count back below the cached one.
			next, err := u.Model().Refit(snap.HeadRows(70))
			if err != nil {
				t.Fatal(err)
			}
			u.Install(next)
			if u.n != 70 {
				t.Fatalf("reseeded count %d, want 70", u.n)
			}
			reseeded = true
		}
	}
	if !reseeded || !counts[seedRows+1] || !counts[horizon] || !counts[71] {
		t.Fatalf("the count did not walk from the seed to the horizon and back (reseeded %v, counts seen %d)", reseeded, len(counts))
	}
}

// TestAllocsDoNotGrowWithP pins the allocation counts of the capture,
// restore and per-bin update paths: each copies a model's floats into a
// fixed number of blocks, so widening the vector must not add allocations.
func TestAllocsDoNotGrowWithP(t *testing.T) {
	type counts struct{ state, updaterState, observe, restore float64 }
	measure := func(p int) counts {
		rng := rand.New(rand.NewPCG(97, uint64(p)))
		n := 2*p + 20
		all := synthTraffic(rng, n+40, p, 2)
		m := fitOn(t, all.HeadRows(n))
		// A cadence that never falls due keeps the window without a refit;
		// a horizon of n keeps the count, and so the T² limit, fixed.
		up, err := NewUpdater(UpdaterIncremental, m, UpdaterConfig{RefitEvery: 1 << 30, Window: n})
		if err != nil {
			t.Fatal(err)
		}
		for bin := n; bin < n+20; bin++ {
			if _, err := up.Observe(all.RowView(bin)); err != nil {
				t.Fatal(err)
			}
		}
		st := m.State()
		x := all.RowView(n + 30)
		var c counts
		c.state = testing.AllocsPerRun(20, func() { m.State() })
		c.updaterState = testing.AllocsPerRun(20, func() { up.State() })
		c.observe = testing.AllocsPerRun(20, func() {
			if _, err := up.Observe(x); err != nil {
				t.Fatal(err)
			}
		})
		c.restore = testing.AllocsPerRun(20, func() {
			if _, err := Restore(st); err != nil {
				t.Fatal(err)
			}
		})
		return c
	}
	small, wide := measure(20), measure(120)
	t.Logf("allocations at p=20 %+v, at p=120 %+v", small, wide)
	if wide.state > small.state || wide.updaterState > small.updaterState ||
		wide.observe > small.observe || wide.restore > small.restore {
		t.Fatalf("allocations grow with p: %+v at p=20, %+v at p=120", small, wide)
	}
}
