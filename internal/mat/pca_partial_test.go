package mat

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

// randomLowRankish builds an n x p matrix with a few strong common factors
// plus noise — the shape of OD traffic matrices.
func randomLowRankish(rng *rand.Rand, n, p, factors int) *Matrix {
	basis := New(factors, p)
	for i := range basis.data {
		basis.data[i] = rng.NormFloat64()
	}
	x := New(n, p)
	for i := 0; i < n; i++ {
		row := x.RowView(i)
		for f := 0; f < factors; f++ {
			w := rng.NormFloat64() * float64(10*(factors-f))
			brow := basis.RowView(f)
			for j := range row {
				row[j] += w * brow[j]
			}
		}
		for j := range row {
			row[j] += rng.NormFloat64()
		}
	}
	return x
}

func TestMulKernelsMatchMul(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	a := New(17, 13)
	b := New(29, 13) // for MulABt: a * bT -> 17x29
	c := New(17, 7)  // for MulAtB: aT * c -> 13x7
	for i := range a.data {
		a.data[i] = rng.NormFloat64()
	}
	for i := range b.data {
		b.data[i] = rng.NormFloat64()
	}
	for i := range c.data {
		c.data[i] = rng.NormFloat64()
	}
	if d := MaxAbsDiff(MulABt(a, b), Mul(a, b.T())); d > 1e-12 {
		t.Fatalf("MulABt differs from reference by %v", d)
	}
	if d := MaxAbsDiff(MulAtB(a, c), Mul(a.T(), c)); d > 1e-12 {
		t.Fatalf("MulAtB differs from reference by %v", d)
	}
}

func TestMulABtDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	a := New(301, 97)
	b := New(211, 97)
	for i := range a.data {
		a.data[i] = rng.NormFloat64()
	}
	for i := range b.data {
		b.data[i] = rng.NormFloat64()
	}
	prev := SetWorkers(1)
	one := MulABt(a, b)
	SetWorkers(7)
	many := MulABt(a, b)
	SetWorkers(prev)
	for i := range one.data {
		if one.data[i] != many.data[i] {
			t.Fatalf("MulABt element %d differs across worker counts", i)
		}
	}
}

func TestFitPCAPartialMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	x := randomLowRankish(rng, 400, 60, 5)
	full, err := FitPCA(x, true)
	if err != nil {
		t.Fatal(err)
	}
	const m = 12
	part, err := FitPCAPartial(x, m, true)
	if err != nil {
		t.Fatal(err)
	}
	if part.P() != 60 || part.NumComputed() != m {
		t.Fatalf("partial shape P=%d m=%d", part.P(), part.NumComputed())
	}
	for i := 0; i < m; i++ {
		f, p := full.Eigenvalues[i], part.Eigenvalues[i]
		// The 5 strong factors must match tightly; the trailing noise-floor
		// eigenvalues are nearly degenerate, so the iteration legitimately
		// stops while they are only loosely resolved.
		tol := 1e-5
		if i >= 5 {
			tol = 0.02
		}
		if rel := math.Abs(f-p) / (f + 1); rel > tol {
			t.Fatalf("eigenvalue %d: full %g partial %g (rel %g)", i, f, p, rel)
		}
	}
	// Axes agree up to sign.
	for i := 0; i < 5; i++ { // the strong factors; trailing noise axes can rotate
		var dot float64
		for j := 0; j < 60; j++ {
			dot += full.Components.At(j, i) * part.Components.At(j, i)
		}
		if math.Abs(dot) < 0.999 {
			t.Fatalf("axis %d misaligned: |dot| = %v", i, math.Abs(dot))
		}
	}
	// TotalVar must equal the full trace.
	if rel := math.Abs(full.TotalVar-part.TotalVar) / full.TotalVar; rel > 1e-12 {
		t.Fatalf("TotalVar drifted: full %g partial %g", full.TotalVar, part.TotalVar)
	}
	// Residual moments: phi1 exact, phi2/phi3 within the flat-tail model's
	// ballpark of the true values.
	k := 4
	f1, f2, f3 := full.ResidualMoments(k)
	p1, p2, p3 := part.ResidualMoments(k)
	if rel := math.Abs(f1-p1) / f1; rel > 1e-9 {
		t.Fatalf("phi1: full %g partial %g", f1, p1)
	}
	if p2 < 0.5*f2 || p2 > 2*f2 {
		t.Fatalf("phi2 off: full %g partial %g", f2, p2)
	}
	if p3 < 0.1*f3 || p3 > 10*f3 {
		t.Fatalf("phi3 off: full %g partial %g", f3, p3)
	}
}

func TestFitPCAPartialDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	x := randomLowRankish(rng, 120, 300, 4) // wide: p > n
	a, err := FitPCAPartial(x, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitPCAPartial(x, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Eigenvalues {
		if a.Eigenvalues[i] != b.Eigenvalues[i] {
			t.Fatalf("eigenvalue %d differs between identical fits", i)
		}
	}
	for i := range a.Components.data {
		if a.Components.data[i] != b.Components.data[i] {
			t.Fatal("components differ between identical fits")
		}
	}
}

func TestFitPCAPartialWideValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	x := randomLowRankish(rng, 50, 200, 3)
	if _, err := FitPCAPartial(x, 0, true); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := FitPCAPartial(x, 201, true); err == nil {
		t.Fatal("m>p accepted")
	}
	// m is clamped to n-1 in the wide regime.
	pca, err := FitPCAPartial(x, 120, true)
	if err != nil {
		t.Fatal(err)
	}
	if pca.NumComputed() != 49 {
		t.Fatalf("m clamp gave %d, want 49", pca.NumComputed())
	}
}

// TestFitPCAPartialWarmMatchesCold: a warm-started fit of the same data
// must land on the same subspace as a cold fit — and be deterministic for
// a fixed warm basis.
func TestFitPCAPartialWarmMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 18))
	x := randomLowRankish(rng, 300, 140, 5)
	cold, err := FitPCAPartial(x, 12, true)
	if err != nil {
		t.Fatal(err)
	}
	// Drift the data slightly and refit warm vs cold.
	y := x.Clone()
	for i := 0; i < y.Rows(); i++ {
		row := y.RowView(i)
		for j := range row {
			row[j] *= 1 + 0.01*math.Sin(float64(i+2*j))
		}
	}
	warm, err := FitPCAPartialWarm(y, 12, true, cold.Components)
	if err != nil {
		t.Fatal(err)
	}
	cold2, err := FitPCAPartial(y, 12, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // strong factors
		if rel := math.Abs(warm.Eigenvalues[i]-cold2.Eigenvalues[i]) / (cold2.Eigenvalues[i] + 1); rel > 1e-5 {
			t.Fatalf("eigenvalue %d: warm %g cold %g", i, warm.Eigenvalues[i], cold2.Eigenvalues[i])
		}
		var dot float64
		for j := 0; j < y.Cols(); j++ {
			dot += warm.Components.At(j, i) * cold2.Components.At(j, i)
		}
		if math.Abs(dot) < 0.999 {
			t.Fatalf("axis %d misaligned after warm start: |dot| = %v", i, math.Abs(dot))
		}
	}
	// Deterministic: same inputs, same warm basis, same result.
	again, err := FitPCAPartialWarm(y, 12, true, cold.Components)
	if err != nil {
		t.Fatal(err)
	}
	for i := range warm.Components.data {
		if warm.Components.data[i] != again.Components.data[i] {
			t.Fatal("warm fit not deterministic")
		}
	}
	// A warm basis with the wrong variable count is ignored, not fatal.
	if _, err := FitPCAPartialWarm(y, 12, true, New(3, 3)); err != nil {
		t.Fatalf("mismatched warm basis: %v", err)
	}
}

// iterateStart builds what FitPCAPartialWarm hands subspaceIterate for a
// cold fit of x: the centered data, an orthonormal random b x p start and
// the rng that refills collapsed rows.
func iterateStart(x *Matrix, b int) (xc, qt *Matrix, rng *rand.Rand) {
	xc = x.Clone()
	xc.CenterColumns()
	rng = rand.New(rand.NewPCG(77, 78))
	qt = New(b, x.Cols())
	for i := range qt.data {
		qt.data[i] = rng.NormFloat64()
	}
	orthonormalizeRows(qt, rng)
	return xc, qt, rng
}

// largestPrincipalAngle returns the largest principal angle, in radians,
// between the spans of the first k rows of the row-wise bases a and b.
func largestPrincipalAngle(t *testing.T, a, b *Matrix, k int) float64 {
	t.Helper()
	cross := MulABt(a.HeadRows(k), b.HeadRows(k))
	vals, _, err := SymEigen(MulAtB(cross, cross))
	if err != nil {
		t.Fatal(err)
	}
	return math.Acos(math.Sqrt(math.Min(1, math.Max(0, vals[k-1]))))
}

// TestGramFormMatchesDataForm runs the one sweep body over the same start
// with S applied through the data matrix, through the Gram matrix, and
// switching from the first to the second mid-iteration: same sweep count,
// eigenvalues to 1e-9, the same top-k subspace to a microradian.
func TestGramFormMatchesDataForm(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 52))
	x := randomLowRankish(rng, 400, 150, 5)
	const m, b, k = 12, 20, 4
	scale := 1 / float64(x.Rows()-1)
	type outcome struct {
		vals   []float64
		basis  *Matrix
		sweeps int
	}
	run := func(gramAfter int) outcome {
		xc, qt, r := iterateStart(x, b)
		vals, basis, sweeps, met, err := subspaceIterate(sOperator(xc, gramAfter), qt, m, scale, r)
		if err != nil {
			t.Fatal(err)
		}
		if !met {
			t.Fatalf("gramAfter=%d: unconverged after %d sweeps", gramAfter, sweeps)
		}
		return outcome{vals, basis, sweeps}
	}
	data := run(-1)
	if data.sweeps < 5 {
		t.Fatalf("only %d sweeps: the switch-over case below would never switch", data.sweeps)
	}
	for _, gramAfter := range []int{0, 3} {
		got := run(gramAfter)
		if got.sweeps != data.sweeps {
			t.Fatalf("gramAfter=%d: %d sweeps, data form %d", gramAfter, got.sweeps, data.sweeps)
		}
		for i := 0; i < m; i++ {
			if rel := math.Abs(got.vals[i]-data.vals[i]) / data.vals[i]; rel > 1e-9 {
				t.Fatalf("gramAfter=%d: eigenvalue %d = %g, data form %g (rel %g)", gramAfter, i, got.vals[i], data.vals[i], rel)
			}
		}
		a := largestPrincipalAngle(t, got.basis, data.basis, k)
		if a > 1e-6 {
			t.Fatalf("gramAfter=%d: top-%d subspace %g rad from the data form's", gramAfter, k, a)
		}
		t.Logf("gramAfter=%d: %d sweeps, top-%d angle %.2g rad", gramAfter, got.sweeps, k, a)
	}
}

// TestFitPCAPartialWideNeverFormsGram: with more flows than bins the fit
// must stay in the data form. A 3000 x 3000 Gram matrix alone would be 72
// MB; the whole fit has to fit in three copies of the 4.8 MB window.
func TestFitPCAPartialWideNeverFormsGram(t *testing.T) {
	const n, p = 200, 3000
	rng := rand.New(rand.NewPCG(53, 54))
	x := randomLowRankish(rng, n, p, 4)
	defer SetWorkers(SetWorkers(1)) // per-worker partial outputs are not the point here
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pca, err := FitPCAPartial(x, 4, true)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(3*n*p*8)
	if got >= limit {
		t.Fatalf("wide fit allocated %d bytes over %d sweeps, want < %d", got, pca.Sweeps, limit)
	}
	t.Logf("wide fit: %d sweeps, %d bytes allocated (limit %d)", pca.Sweeps, got, limit)
}

func TestRitzMatrixExactlySymmetric(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 56))
	qt, zt := randomMatrix(rng, 24, 529), randomMatrix(rng, 24, 529)
	r := ritzMatrix(qt, zt, 1.0/2015)
	if !r.IsSymmetric(0) {
		t.Fatal("Ritz matrix not symmetric to the bit")
	}
	want := MulABt(qt, zt)
	for i := 0; i < r.rows; i++ {
		for j := 0; j < r.cols; j++ {
			mean := (want.At(i, j) + want.At(j, i)) / 2 / 2015
			if math.Abs(r.At(i, j)-mean) > 1e-12*math.Abs(mean) {
				t.Fatalf("(%d,%d) = %g, want %g", i, j, r.At(i, j), mean)
			}
		}
	}
}

// TestFitPCAPartialReportsSweeps: a fit says how many sweeps it ran and
// whether it stopped because it converged or because it ran out of them.
func TestFitPCAPartialReportsSweeps(t *testing.T) {
	rng := rand.New(rand.NewPCG(57, 58))
	x := randomLowRankish(rng, 400, 60, 5)
	part, err := FitPCAPartial(x, 12, true)
	if err != nil {
		t.Fatal(err)
	}
	if part.Sweeps < 2 || part.Sweeps >= 80 || part.Unconverged {
		t.Fatalf("converged fit reports %d sweeps, unconverged=%v", part.Sweeps, part.Unconverged)
	}
	full, err := FitPCA(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if full.Sweeps != 0 || full.Unconverged {
		t.Fatalf("full fit reports %d sweeps, unconverged=%v", full.Sweeps, full.Unconverged)
	}
	// White noise has no spectral gap anywhere: the trailing Ritz values
	// of a 16-axis fit are still moving when the sweep cap arrives.
	noise, err := FitPCAPartial(randomMatrix(rng, 6000, 120), 16, true)
	if err != nil {
		t.Fatal(err)
	}
	if noise.Sweeps != 80 || !noise.Unconverged {
		t.Fatalf("gapless fit reports %d sweeps, unconverged=%v; want the cap, flagged", noise.Sweeps, noise.Unconverged)
	}
}

// TestFitPCAPartialWarmSweeps pins the warm start's two regimes at a
// geant-shaped p ≤ n: next to the fixed point it finishes in the data form
// before the Gram matrix would have paid for itself; far from it, it
// switches and still lands where the cold fit does.
func TestFitPCAPartialWarmSweeps(t *testing.T) {
	rng := rand.New(rand.NewPCG(59, 60))
	x := randomLowRankish(rng, 700, 529, 5)
	cold, err := FitPCAPartial(x, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Sweeps > 40 {
		t.Fatalf("cold fit took %d sweeps", cold.Sweeps)
	}
	y := x.Clone()
	for i := range y.data {
		y.data[i] *= 1 + 1e-4*math.Sin(float64(i))
	}
	warm, err := FitPCAPartialWarm(y, 16, true, cold.Components)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Sweeps > 4 {
		t.Fatalf("warm refit of slightly drifted data took %d sweeps, want <= 4", warm.Sweeps)
	}
	// A useless warm basis (random axes) must cost sweeps, not accuracy.
	far, err := FitPCAPartialWarm(x, 16, true, randomMatrix(rng, 529, 16))
	if err != nil {
		t.Fatal(err)
	}
	if switchAt := (529 + 4*24 - 1) / (4 * 24); far.Sweeps <= switchAt {
		t.Fatalf("far warm start converged in %d sweeps: the Gram switch at %d went unexercised", far.Sweeps, switchAt)
	}
	t.Logf("sweeps: cold %d, warm near %d, warm far %d", cold.Sweeps, warm.Sweeps, far.Sweeps)
	for i := 0; i < 5; i++ {
		if rel := math.Abs(far.Eigenvalues[i]-cold.Eigenvalues[i]) / cold.Eigenvalues[i]; rel > 1e-6 {
			t.Fatalf("eigenvalue %d: far warm start %g, cold %g", i, far.Eigenvalues[i], cold.Eigenvalues[i])
		}
	}
}
