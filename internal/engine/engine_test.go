package engine

import (
	"math"
	"math/rand/v2"
	"testing"

	"netwide/internal/mat"
)

// synthTraffic builds an n x p traffic-like matrix: a few shared temporal
// patterns (diurnal plus slower weekly structure) with per-flow loadings
// and noise, so the covariance has the fast spectral decay of gravity-model
// OD traffic.
func synthTraffic(rng *rand.Rand, n, p int, noise float64) *mat.Matrix {
	m := mat.New(n, p)
	load1 := make([]float64, p)
	load2 := make([]float64, p)
	for j := 0; j < p; j++ {
		load1[j] = 1 + rng.Float64()*3
		load2[j] = rng.Float64() * 2
	}
	for i := 0; i < n; i++ {
		daily := math.Sin(2 * math.Pi * float64(i) / 288)
		weekly := math.Sin(2 * math.Pi * float64(i) / 2016)
		row := m.RowView(i)
		for j := range row {
			row[j] = 100 + 40*daily*load1[j] + 15*weekly*load2[j] + noise*rng.NormFloat64()
		}
	}
	return m
}

func TestFitValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	train := synthTraffic(rng, 200, 8, 1)
	if _, err := Fit(train, Options{K: 0, Alpha: 0.001}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Fit(train, Options{K: 8, Alpha: 0.001}); err == nil {
		t.Fatal("k=p accepted")
	}
	if _, err := Fit(train, Options{K: 4, Alpha: 2}); err == nil {
		t.Fatal("alpha=2 accepted")
	}
	if _, err := Fit(synthTraffic(rng, 4, 8, 1), Options{K: 4, Alpha: 0.001}); err == nil {
		t.Fatal("n<=k accepted")
	}
	// n <= p trains through the partial-PCA path (wide OD matrices).
	if _, err := Fit(synthTraffic(rng, 6, 8, 1), Options{K: 4, Alpha: 0.001}); err != nil {
		t.Fatalf("wide training matrix rejected: %v", err)
	}
}

func TestScoreBatchMatchesScore(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	train := synthTraffic(rng, 400, 10, 2)
	m, err := Fit(train, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var xs [][]float64
	var want []Point
	for bin := 0; bin < 48; bin++ {
		x := train.Row(bin * 8)
		if bin == 17 {
			x[3] += 700
		}
		xs = append(xs, x)
		pt, err := m.Score(x)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, pt)
	}
	got, err := m.ScoreBatch(xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i].SPE-want[i].SPE) > 1e-9*(1+want[i].SPE) ||
			got[i].SPEAlarm != want[i].SPEAlarm || got[i].T2Alarm != want[i].T2Alarm ||
			got[i].TopResidualOD != want[i].TopResidualOD {
			t.Fatalf("point %d: batch %+v, serial %+v", i, got[i], want[i])
		}
	}
}

func TestSplitReconstructsVector(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	train := synthTraffic(rng, 300, 12, 2)
	m, err := Fit(train, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	x := train.Row(100)
	x[7] += 300
	modeled, residual, err := m.Split(x)
	if err != nil {
		t.Fatal(err)
	}
	// modeled + residual must reconstruct the centered vector, and the SPE
	// implied by the residual must match Score.
	pt, err := m.Score(x)
	if err != nil {
		t.Fatal(err)
	}
	var spe float64
	for f := range residual {
		xc := x[f] - m.PCA().Mean[f]
		if math.Abs(modeled[f]+residual[f]-xc) > 1e-9*(1+math.Abs(xc)) {
			t.Fatalf("flow %d: modeled %v + residual %v != centered %v", f, modeled[f], residual[f], xc)
		}
		spe += residual[f] * residual[f]
	}
	if math.Abs(spe-pt.SPE) > 1e-9*(1+pt.SPE) {
		t.Fatalf("Split SPE %v, Score SPE %v", spe, pt.SPE)
	}
	if _, _, err := m.Split(make([]float64, 3)); err == nil {
		t.Fatal("short vector accepted")
	}
}

// TestRefitGenerationsAndImmutability: Refit returns a new model with the
// next generation and leaves the receiver untouched.
func TestRefitGenerationsAndImmutability(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	trainA := synthTraffic(rng, 300, 8, 1)
	m0, err := Fit(trainA, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if m0.Gen() != 0 {
		t.Fatalf("initial generation %d, want 0", m0.Gen())
	}
	q0, t20 := m0.Limits()
	// A much noisier regime: the refit must raise the Q threshold.
	trainB := synthTraffic(rng, 300, 8, 20)
	m1, err := m0.Refit(trainB)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Gen() != 1 {
		t.Fatalf("refit generation %d, want 1", m1.Gen())
	}
	q1, _ := m1.Limits()
	if q1 <= q0 {
		t.Fatalf("refit on noisier data should raise Q: %v <= %v", q1, q0)
	}
	if q, t2 := m0.Limits(); q != q0 || t2 != t20 {
		t.Fatal("Refit mutated the receiver")
	}
	if m0.Train() != trainA {
		t.Fatal("generation 0 does not retain its training window")
	}
	if m1.Train() != nil {
		t.Fatal("refit generation pinned its throwaway window")
	}
}

// warmCase exercises the warm-started refit on the partial-PCA path at one
// (n, p) scale: the warm fit must agree with a cold fit of the same window
// within tolerance, on thresholds and on the scores it assigns.
func warmCase(t *testing.T, n, p int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(uint64(n), uint64(p)))
	winA := synthTraffic(rng, n, p, 2)
	m0, err := Fit(winA, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if m0.PCA().NumComputed() >= p && p > MaxFullPCAVars {
		t.Fatalf("p=%d expected the partial-PCA path", p)
	}
	// Drift the window slightly — the nightly-refit regime.
	winB := winA.Clone()
	for i := 0; i < n; i++ {
		row := winB.RowView(i)
		for j := range row {
			row[j] *= 1 + 0.02*math.Sin(float64(i+j))
		}
	}
	warm, err := m0.Refit(winB)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Fit(winB, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	qw, t2w := warm.Limits()
	qc, t2c := cold.Limits()
	if math.Abs(qw-qc) > 1e-3*qc || math.Abs(t2w-t2c) > 1e-6*t2c {
		t.Fatalf("warm limits (%v,%v) differ from cold (%v,%v)", qw, t2w, qc, t2c)
	}
	for bin := 0; bin < n; bin += n / 7 {
		x := winB.Row(bin)
		pw, err := warm.Score(x)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := cold.Score(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pw.SPE-pc.SPE) > 1e-4*(1+pc.SPE) || math.Abs(pw.T2-pc.T2) > 1e-4*(1+pc.T2) {
			t.Fatalf("bin %d: warm scores (%v,%v), cold (%v,%v)", bin, pw.SPE, pw.T2, pc.SPE, pc.T2)
		}
	}
}

// TestWarmRefitAgreesWithCold checks warm-vs-cold agreement at the two
// partial-path scales the acceptance criteria name: the 23-PoP Géant
// backbone (529 OD pairs) and a 50-PoP synthetic backbone (2500 OD pairs).
func TestWarmRefitAgreesWithCold(t *testing.T) {
	t.Run("geant", func(t *testing.T) { warmCase(t, 700, 529) })
	t.Run("synthetic50", func(t *testing.T) { warmCase(t, 400, 2500) })
}

// TestFitWarningFlagsUnconvergedFit: a partial fit that runs out of sweeps
// still yields a scoring model, and says so; a converged one is silent.
func TestFitWarningFlagsUnconvergedFit(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 62))
	good, err := Fit(synthTraffic(rng, 700, 529, 2), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s := good.PCA().Sweeps; s < 2 || s > 40 {
		t.Fatalf("traffic-like fit took %d sweeps", s)
	}
	if err := good.FitWarning(); err != nil {
		t.Fatalf("converged fit warns: %v", err)
	}
	// White noise: no spectral gap for the iteration to converge on.
	noise := mat.New(2016, 529)
	for i := 0; i < noise.Rows(); i++ {
		row := noise.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	m, err := Fit(noise, DefaultOptions())
	if err != nil {
		t.Fatalf("an unconverged fit must degrade, not fail: %v", err)
	}
	if err := m.FitWarning(); err == nil {
		t.Fatalf("fit stopped at the sweep cap (%d sweeps) without a warning", m.PCA().Sweeps)
	}
	if _, err := m.Score(noise.Row(0)); err != nil {
		t.Fatalf("unconverged model cannot score: %v", err)
	}
	// The flag describes a fit, not a model's state: it is not restored.
	back, err := Restore(m.State())
	if err != nil {
		t.Fatal(err)
	}
	if err := back.FitWarning(); err != nil {
		t.Fatalf("restored model warns: %v", err)
	}
}
