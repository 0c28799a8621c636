package netwide_test

import (
	"testing"

	"netwide"
	"netwide/internal/dataset"
	"netwide/internal/engine"
	"netwide/internal/mat"
)

// TestGeantFitSweepBudget pins the sweep counts the geant fit's speed rests
// on, on simulated geant traffic rather than a stand-in spectrum: a cold
// fit of the week converges well inside the 80-sweep cap (which is what
// makes forming the Gram matrix once worth it), a warm refit of the window
// the model was trained on stops before the Gram switch-over, and a
// nightly refit — the window slid by a day — does not: on real traffic the
// warm start spares the top axes, not the trailing noise-floor ones, and
// the refit is nearly as long as a cold fit.
func TestGeantFitSweepBudget(t *testing.T) {
	cfg := netwide.QuickConfig()
	cfg.Topology = "geant"
	run, err := netwide.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const day, window = 288, 6 * 288
	for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
		X := run.Dataset().Matrix(m)
		week, err := engine.Fit(X, engine.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if s := week.PCA().Sweeps; s > 40 || week.FitWarning() != nil {
			t.Errorf("%v: cold fit of the week took %d sweeps (warning: %v), want <= 40", m, s, week.FitWarning())
		}
		same, err := week.Refit(X)
		if err != nil {
			t.Fatal(err)
		}
		if s := same.PCA().Sweeps; s > 4 {
			t.Errorf("%v: warm refit of the training window took %d sweeps, want <= 4", m, s)
		}

		head, err := engine.Fit(X.HeadRows(window), engine.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		slid := mat.New(window, X.Cols())
		for i := 0; i < window; i++ {
			copy(slid.RowView(i), X.RowView(day+i))
		}
		nightly, err := head.Refit(slid)
		if err != nil {
			t.Fatal(err)
		}
		if s := nightly.PCA().Sweeps; s > 40 || nightly.FitWarning() != nil {
			t.Errorf("%v: nightly warm refit took %d sweeps (warning: %v), want <= 40", m, s, nightly.FitWarning())
		}
		t.Logf("%v sweeps: week cold %d, same-window warm %d, 6-day cold %d, slid-a-day warm %d",
			m, week.PCA().Sweeps, same.PCA().Sweeps, head.PCA().Sweeps, nightly.PCA().Sweeps)
	}
}
