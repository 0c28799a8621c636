package engine

// A model keeps every eigenvalue but only the top keptAxes(K, len) axes.
// The full fit that kept all p axes is kept below as the refFit oracle;
// TestKeptAxesMatchesReference (keptaxes_ext_test.go) holds the kept-axes
// model to it on every verdict, refit and update that reads the basis.

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"netwide/internal/mat"
	"netwide/internal/stats"
)

// refFitPCA is fitPCA from before a full fit dropped the axes past
// keptAxes: the full path returns all p of them.
func refFitPCA(X *mat.Matrix, k int, warm *mat.PCA) (*mat.PCA, error) {
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

// refFit is Fit from before a full fit dropped the axes past keptAxes.
func refFit(train *mat.Matrix, opts Options) (*Model, error) {
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
	pca, err := refFitPCA(train, opts.K, nil)
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
	m := newModel(opts, pca, qLimit, t2Limit, 0, 0)
	m.train = train
	return m, nil
}

// TestKeptAxesInvariant: every way to make a Model — the full fit, the
// partial fit and its warm refit, the incremental publish and Restore —
// keeps a basis of exactly keptAxes(K, len(Eigenvalues)) columns, and
// Restore refuses any other width with the reason.
func TestKeptAxesInvariant(t *testing.T) {
	rng := rand.New(rand.NewPCG(121, 24))
	check := func(what string, m *Model, wantCols int) {
		t.Helper()
		if c, nc := m.pca.Components.Cols(), len(m.pca.Eigenvalues); c != keptAxes(m.opts.K, nc) || c != wantCols {
			t.Fatalf("%s: basis keeps %d axes of %d eigenvalues, want %d", what, c, nc, wantCols)
		}
		r, err := Restore(m.State())
		if err != nil {
			t.Fatalf("%s: restore: %v", what, err)
		}
		if err := sameModel(r, m); err != nil {
			t.Fatalf("%s: restored model: %v", what, err)
		}
	}
	// keptAxes(4, ·) is 24: p = 12 keeps all of a full fit, p = 121 a fifth.
	check("full fit, p=12", fitOn(t, synthTraffic(rng, 300, 12, 2)), 12)
	all := synthRich(rng, 360, 121, 4, 1)
	full := fitOn(t, all.HeadRows(300))
	check("full fit, p=121", full, 24)
	if got := len(full.pca.Eigenvalues); got != 121 {
		t.Fatalf("full fit keeps %d eigenvalues, want 121", got)
	}
	warm, err := full.Refit(all.HeadRows(100))
	if err != nil {
		t.Fatal(err)
	}
	check("warm partial refit of a full fit", warm, 16)
	check("partial fit", fitOn(t, synthTraffic(rng, 120, 600, 2)), 16)
	up, err := NewUpdater(UpdaterIncremental, full, UpdaterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for bin := 300; bin < 310; bin++ {
		if _, err := up.Observe(all.RowView(bin)); err != nil {
			t.Fatal(err)
		}
	}
	check("incremental publish", up.Model(), 16)

	// A state of any other width is refused: the full p x p basis a
	// version-6 snapshot carried, and one axis short.
	ref, err := refFit(all.HeadRows(300), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	narrow := full.State()
	trimCols(&narrow, 23)
	for what, st := range map[string]ModelState{"p x p": ref.State(), "p x 23": narrow} {
		_, err := Restore(st)
		if err == nil || !strings.Contains(err.Error(), "want 121 x 24") {
			t.Fatalf("%s basis: restore error %v, want the kept width stated", what, err)
		}
	}
}
