package engine

// The subspace method end to end on small synthetic matrices: one fit on
// every bin, then every bin scored against it — the chain Run.Detect runs
// per traffic measure.

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netwide/internal/mat"
)

// spike is an injected anomaly: magnitude mag added at (bin, od).
type spike struct {
	bin, od int
	mag     float64
}

// diurnalTraffic builds a low-rank diurnal OD-like matrix — three latent
// patterns with positive per-flow loadings — plus noise and spikes.
func diurnalTraffic(rng *rand.Rand, n, p int, noise float64, spikes []spike) *mat.Matrix {
	loads := mat.New(3, p)
	for r := 0; r < 3; r++ {
		for j := 0; j < p; j++ {
			loads.Set(r, j, 1+rng.Float64()*4)
		}
	}
	x := mat.New(n, p)
	for i := 0; i < n; i++ {
		t := float64(i) / 288
		l := []float64{
			100 * (1 + 0.5*math.Sin(2*math.Pi*t)),
			30 * (1 + 0.4*math.Cos(2*math.Pi*t)),
			10 * math.Sin(4*math.Pi*t),
		}
		for j := 0; j < p; j++ {
			v := 0.0
			for r := 0; r < 3; r++ {
				v += l[r] * loads.At(r, j)
			}
			x.Set(i, j, v+noise*rng.NormFloat64())
		}
	}
	for _, s := range spikes {
		x.Set(s.bin, s.od, x.At(s.bin, s.od)+s.mag)
	}
	return x
}

// scoreAll fits on every row of x and scores every row against the fit.
func scoreAll(t *testing.T, x *mat.Matrix, opts Options) (*Model, []Point) {
	t.Helper()
	m, err := Fit(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, x.Rows())
	for j := range rows {
		rows[j] = x.RowView(j)
	}
	pts, err := m.ScoreBatch(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m, pts
}

// TestWholeMatrixFitValidation: the fit on every bin rejects bad options
// and too few bins, and accepts a square matrix through the partial path.
func TestWholeMatrixFitValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	x := diurnalTraffic(rng, 100, 8, 1, nil)
	if _, err := Fit(x, Options{K: 0, Alpha: 0.001}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Fit(x, Options{K: 8, Alpha: 0.001}); err == nil {
		t.Fatal("k=p accepted")
	}
	if _, err := Fit(x, Options{K: 4, Alpha: 0}); err == nil {
		t.Fatal("alpha=0 accepted")
	}
	if _, err := Fit(diurnalTraffic(rng, 4, 8, 1, nil), Options{K: 4, Alpha: 0.001}); err == nil {
		t.Fatal("n<=k accepted")
	}
	// n <= p is not an error: the partial-PCA path covers the wide regime
	// (scale-sweep topologies have far more OD flows than bins).
	scoreAll(t, diurnalTraffic(rng, 8, 8, 1, nil), Options{K: 4, Alpha: 0.001})
}

func TestCleanTrafficFewAlarms(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	m, pts := scoreAll(t, diurnalTraffic(rng, 2016, 12, 2, nil), DefaultOptions())
	// At alpha=0.001 over 2016 bins and two statistics, expect a handful
	// of false alarms at most.
	alarms := 0
	for _, pt := range pts {
		if pt.SPEAlarm {
			alarms++
		}
		if pt.T2Alarm {
			alarms++
		}
	}
	if alarms > 30 {
		t.Fatalf("clean traffic raised %d alarms", alarms)
	}
	if q, t2 := m.Limits(); q <= 0 || t2 <= 0 {
		t.Fatalf("limits %v / %v", q, t2)
	}
}

func TestDetectsInjectedSpike(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	spikes := []spike{{bin: 500, od: 3, mag: 400}, {bin: 1200, od: 7, mag: 300}}
	_, pts := scoreAll(t, diurnalTraffic(rng, 2016, 12, 2, spikes), DefaultOptions())
	for _, s := range spikes {
		if pt := pts[s.bin]; !pt.SPEAlarm && !pt.T2Alarm {
			t.Fatalf("spike at bin %d not detected: %+v", s.bin, pt)
		}
	}
}

func TestSPERemovesDiurnal(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	x := diurnalTraffic(rng, 2016, 12, 2, nil)
	_, pts := scoreAll(t, x, DefaultOptions())
	state := make([]float64, len(pts))
	spe := make([]float64, len(pts))
	for j, pt := range pts {
		state[j] = mat.Dot(x.RowView(j), x.RowView(j))
		spe[j] = pt.SPE
	}
	// The state vector has a strong diurnal swing; the SPE must not.
	// Compare coefficient of variation.
	cv := func(xs []float64) float64 {
		var sum, sumsq float64
		for _, v := range xs {
			sum += v
			sumsq += v * v
		}
		n := float64(len(xs))
		mean := sum / n
		return math.Sqrt(sumsq/n-mean*mean) / mean
	}
	if cv(spe) > cv(state) {
		t.Fatalf("residual noisier than raw: cv(SPE)=%v cv(state)=%v", cv(spe), cv(state))
	}
	// Residual SPE must be orders of magnitude below state.
	var stateSum, speSum float64
	for i := range state {
		stateSum += state[i]
		speSum += spe[i]
	}
	if speSum > stateSum/100 {
		t.Fatalf("subspace separation weak: %v vs %v", speSum, stateSum)
	}
}

func TestT2CatchesWhatSPEMisses(t *testing.T) {
	// An anomaly aligned exactly with the first principal axis lives in
	// the normal subspace: SPE is blind to it, T² must flag it. This is
	// the paper's motivating case for the T² extension (Section 2.2).
	rng := rand.New(rand.NewPCG(5, 5))
	n, p := 1000, 10
	x := mat.New(n, p)
	// One dominant latent factor with fixed loading direction.
	dir := make([]float64, p)
	var norm float64
	for j := range dir {
		dir[j] = 1 + float64(j%3)
		norm += dir[j] * dir[j]
	}
	norm = math.Sqrt(norm)
	for j := range dir {
		dir[j] /= norm
	}
	for i := 0; i < n; i++ {
		f := 50 * math.Sin(2*math.Pi*float64(i)/288)
		for j := 0; j < p; j++ {
			x.Set(i, j, f*dir[j]+0.5*rng.NormFloat64())
		}
	}
	// Inject a huge shift along the SAME direction at bin 400.
	for j := 0; j < p; j++ {
		x.Set(400, j, x.At(400, j)+500*dir[j])
	}
	_, pts := scoreAll(t, x, Options{K: 2, Alpha: 0.001})
	if !pts[400].T2Alarm {
		t.Fatal("T² missed an in-subspace anomaly")
	}
	if pts[400].SPEAlarm {
		t.Fatal("SPE saw an anomaly that lies inside the normal subspace; test construction is broken")
	}
}

func TestStatKindString(t *testing.T) {
	if StatSPE.String() != "SPE" || StatT2.String() != "T2" {
		t.Fatal("stat names wrong")
	}
	if StatKind(9).String() != "StatKind(9)" {
		t.Fatal("unknown stat name wrong")
	}
}

// TestScoreFlagsFreshAnomaly: a model trained on clean history passes a
// clean out-of-sample bin and flags the same bin with one flow spiked,
// naming that flow as the top residual.
func TestScoreFlagsFreshAnomaly(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	train := diurnalTraffic(rng, 600, 10, 2, nil)
	m, err := Fit(train, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pt, err := m.Score(train.Row(300))
	if err != nil {
		t.Fatal(err)
	}
	if q, _ := m.Limits(); pt.SPEAlarm {
		t.Fatalf("clean bin alarmed: SPE %v > %v", pt.SPE, q)
	}
	dirty := train.Row(300)
	dirty[7] += 500
	if pt, err = m.Score(dirty); err != nil {
		t.Fatal(err)
	}
	if !pt.SPEAlarm && !pt.T2Alarm {
		t.Fatal("injected anomaly not alarmed")
	}
	if pt.TopResidualOD != 7 && pt.SPEAlarm {
		t.Fatalf("top residual OD %d, want 7", pt.TopResidualOD)
	}
}

// Property: SPE + ‖x̂‖² == ‖centered x‖² per bin for any k.
func TestPropEnergyConservation(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^3))
		n := 60 + int(seed%40)
		p := 6 + int((seed>>3)%4)
		x := diurnalTraffic(rng, n, p, 1, nil)
		k := 1 + int(seed%4)
		m, pts := scoreAll(t, x, Options{K: k, Alpha: 0.01})
		for j := 0; j < n; j += 7 {
			xc := make([]float64, p)
			for f := 0; f < p; f++ {
				xc[f] = x.At(j, f) - m.PCA().Mean[f]
			}
			total := mat.Dot(xc, xc)
			mrow, _, err := m.Split(x.RowView(j))
			if err != nil {
				return false
			}
			modeled := mat.Dot(mrow, mrow)
			if math.Abs(total-modeled-pts[j].SPE) > 1e-6*(1+total) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: raising k never increases any SPE value.
func TestPropSPEMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 78))
	x := diurnalTraffic(rng, 300, 9, 1.5, nil)
	var prev []Point
	for k := 1; k < 9; k++ {
		_, pts := scoreAll(t, x, Options{K: k, Alpha: 0.001})
		for j := range prev {
			if pts[j].SPE > prev[j].SPE+1e-9 {
				t.Fatalf("SPE increased with k at bin %d", j)
			}
		}
		prev = pts
	}
}
