package engine_test

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"netwide/internal/engine"
	"netwide/internal/identify"
	"netwide/internal/mat"
)

// TestKeptAxesMatchesReference: at the paper's p = 121 a model that keeps
// every eigenvalue but only the top 2K+16 axes is, against the refFit oracle
// that keeps all p, bit for bit the same detector — the same SPE, T² and
// alarms on every bin, the same identified ODs and residuals, the same
// limits — and every path that reads past the top K axes matches too: a
// full → partial warm refit on an n ≤ p window runs the same sweeps to the
// same basis, and an incremental updater seeded from either model publishes
// the same models.
func TestKeptAxesMatchesReference(t *testing.T) {
	const n, p = 600, 121
	rng := rand.New(rand.NewPCG(121, 2004))
	x := engine.SpikedTraffic(rng, n+60, p, 400)
	train := x.HeadRows(n)
	opts := engine.DefaultOptions()
	got, err := engine.Fit(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.RefFit(train, opts)
	if err != nil {
		t.Fatal(err)
	}

	gp, wp := got.PCA(), want.PCA()
	keep := 2*opts.K + 16
	if gp.Components.Cols() != keep || wp.Components.Cols() != p {
		t.Fatalf("bases keep %d and %d axes, want %d and %d", gp.Components.Cols(), wp.Components.Cols(), keep, p)
	}
	if !engine.SameBits(gp.Eigenvalues, wp.Eigenvalues) || !engine.SameBits(gp.Mean, wp.Mean) ||
		mat.MaxAbsDiff(gp.Components, wp.Components.HeadCols(keep)) != 0 {
		t.Fatal("the kept spectrum, mean or axes differ from the reference's")
	}
	gq, gt := got.Limits()
	wq, wt := want.Limits()
	if !engine.SameBits([]float64{gq, gt}, []float64{wq, wt}) {
		t.Fatalf("limits (%v, %v), reference (%v, %v)", gq, gt, wq, wt)
	}

	rows := make([][]float64, x.Rows())
	for i := range rows {
		rows[i] = x.RowView(i)
	}
	gpts, err := got.ScoreBatch(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	wpts, err := want.ScoreBatch(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	var spe, t2 int
	for i, pt := range gpts {
		if pt != wpts[i] {
			t.Fatalf("bin %d: scored %+v, reference %+v", i, pt, wpts[i])
		}
		if !pt.SPEAlarm && !pt.T2Alarm {
			continue
		}
		if pt.SPEAlarm {
			spe++
		}
		if pt.T2Alarm {
			t2++
		}
		ga, err := identify.AttributeLive(got, i, rows[i], pt)
		if err != nil {
			t.Fatal(err)
		}
		wa, err := identify.AttributeLive(want, i, rows[i], wpts[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ga, wa) {
			t.Fatalf("bin %d: identified %+v, reference %+v", i, ga, wa)
		}
	}
	if spe == 0 || t2 == 0 {
		t.Fatalf("%d SPE and %d T2 alarms: the identification check is vacuous", spe, t2)
	}

	// n ≤ p: the partial path, warm-started from each model's basis.
	window := x.HeadRows(100)
	gr, err := got.Refit(window)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := want.Refit(window)
	if err != nil {
		t.Fatal(err)
	}
	if gr.PCA().Sweeps == 0 || gr.PCA().Sweeps != wr.PCA().Sweeps {
		t.Fatalf("warm refit ran %d sweeps, reference %d", gr.PCA().Sweeps, wr.PCA().Sweeps)
	}
	if err := engine.SameModel(gr, wr); err != nil {
		t.Fatalf("warm partial refit: %v", err)
	}

	for _, seed := range []struct {
		name      string
		got, want *engine.Model
	}{{"full fit", got, want}, {"warm refit", gr, wr}} {
		gu, err := engine.NewUpdater(engine.UpdaterIncremental, seed.got, engine.UpdaterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		wu, err := engine.NewUpdater(engine.UpdaterIncremental, seed.want, engine.UpdaterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for bin := n; bin < x.Rows(); bin++ {
			_, gerr := gu.Observe(rows[bin])
			_, werr := wu.Observe(rows[bin])
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s, bin %d: update error %v, reference %v", seed.name, bin, gerr, werr)
			}
			if err := engine.SameModel(gu.Model(), wu.Model()); err != nil {
				t.Fatalf("%s, bin %d: published model: %v", seed.name, bin, err)
			}
		}
	}
}
