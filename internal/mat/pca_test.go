package mat

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func lowRankData(rng *rand.Rand, n, p, rank int, noise float64) *Matrix {
	// Sum of `rank` latent sinusoids with random per-column loadings.
	loads := randomMatrix(rng, rank, p)
	x := New(n, p)
	for i := 0; i < n; i++ {
		for r := 0; r < rank; r++ {
			lat := math.Sin(2*math.Pi*float64(r+1)*float64(i)/float64(n)) * float64(10*(rank-r))
			for j := 0; j < p; j++ {
				x.Set(i, j, x.At(i, j)+lat*loads.At(r, j))
			}
		}
		for j := 0; j < p; j++ {
			x.Set(i, j, x.At(i, j)+noise*rng.NormFloat64())
		}
	}
	return x
}

// center returns X with p's fitted mean removed (a new matrix).
func center(p *PCA, X *Matrix) *Matrix {
	out := X.Clone()
	for i := 0; i < out.Rows(); i++ {
		row := out.RowView(i)
		for j := range row {
			row[j] -= p.Mean[j]
		}
	}
	return out
}

// scores returns T = Xc * V (n x m): the coordinates of each centered
// observation in the principal-axis basis.
func scores(p *PCA, X *Matrix) *Matrix { return Mul(center(p, X), p.Components) }

// eigenflows returns U (n x m) whose column i is the i-th score column
// normalized to unit Euclidean norm — the eigenflow formulation of Lakhina
// et al. (SIGMETRICS 2004), X = U S V^T. Columns of (near) zero norm stay
// zero.
func eigenflows(p *PCA, X *Matrix) *Matrix {
	u := scores(p, X)
	for j := 0; j < u.Cols(); j++ {
		var norm float64
		for i := 0; i < u.Rows(); i++ {
			norm += u.At(i, j) * u.At(i, j)
		}
		if norm = math.Sqrt(norm); norm < 1e-300 {
			continue
		}
		for i := 0; i < u.Rows(); i++ {
			u.Set(i, j, u.At(i, j)/norm)
		}
	}
	return u
}

// projectionSplit splits each centered row of X into its projection onto
// the top-k principal axes and the residual: X = Xhat + Xtilde + 1*mean^T.
func projectionSplit(p *PCA, X *Matrix, k int) (modeled, residual *Matrix) {
	residual = center(p, X)
	vk := p.TopComponents(k)
	modeled = Mul(Mul(residual, vk), vk.T())
	for i, v := range modeled.data {
		residual.data[i] -= v
	}
	return modeled, residual
}

func TestFitPCAErrors(t *testing.T) {
	if _, err := FitPCA(New(1, 3), true); err == nil {
		t.Fatal("accepted single-row input")
	}
}

func TestPCAReconstruction(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	x := lowRankData(rng, 100, 12, 3, 0.5)
	p, err := FitPCA(x, true)
	if err != nil {
		t.Fatal(err)
	}
	modeled, residual := projectionSplit(p, x, 4)
	// modeled + residual must equal centered X exactly.
	xc := center(p, x)
	if d := MaxAbsDiff(Add(modeled, residual), xc); d > 1e-9 {
		t.Fatalf("x != xhat + xtilde, max err %v", d)
	}
}

func TestPCAFullRankResidualZero(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	x := lowRankData(rng, 50, 6, 2, 1)
	p, err := FitPCA(x, true)
	if err != nil {
		t.Fatal(err)
	}
	_, residual := projectionSplit(p, x, 6)
	for i := 0; i < residual.Rows(); i++ {
		if n := Norm2(residual.RowView(i)); n > 1e-8 {
			t.Fatalf("full-rank projection leaves residual %v at row %d", n, i)
		}
	}
}

func TestPCACapturesLowRank(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	x := lowRankData(rng, 300, 20, 3, 0.01)
	p, err := FitPCA(x, true)
	if err != nil {
		t.Fatal(err)
	}
	ve := p.VarianceExplained()
	if ve[2] < 0.999 {
		t.Fatalf("top-3 variance explained %v, want > 0.999", ve[2])
	}
	if ve[len(ve)-1] < 0.999999 {
		t.Fatalf("total variance explained %v, want ~1", ve[len(ve)-1])
	}
}

func TestEigenflowsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 18))
	x := lowRankData(rng, 200, 10, 4, 1)
	p, err := FitPCA(x, true)
	if err != nil {
		t.Fatal(err)
	}
	u := eigenflows(p, x)
	// Columns with non-negligible eigenvalue must be unit-norm and mutually
	// orthogonal (scores along distinct principal axes are orthogonal).
	for a := 0; a < u.Cols(); a++ {
		ca := u.Col(a)
		na := Norm2(ca)
		if p.Eigenvalues[a] > 1e-9 && math.Abs(na-1) > 1e-8 {
			t.Fatalf("eigenflow %d norm %v", a, na)
		}
		for b := a + 1; b < u.Cols(); b++ {
			if p.Eigenvalues[b] <= 1e-9 {
				continue
			}
			if d := math.Abs(Dot(ca, u.Col(b))); d > 1e-7 {
				t.Fatalf("eigenflows %d,%d not orthogonal: %v", a, b, d)
			}
		}
	}
}

func TestEigenflowMeansNearZero(t *testing.T) {
	// With centered data, each eigenflow has (exactly) zero mean: it is a
	// linear combination of centered columns. The paper's T^2 statistic
	// relies on this ("multivariate mean ... equal to zero by construction").
	rng := rand.New(rand.NewPCG(19, 20))
	x := lowRankData(rng, 150, 8, 3, 1)
	p, err := FitPCA(x, true)
	if err != nil {
		t.Fatal(err)
	}
	u := eigenflows(p, x)
	for j := 0; j < u.Cols(); j++ {
		if p.Eigenvalues[j] <= 1e-9 {
			continue
		}
		var mean float64
		for i := 0; i < u.Rows(); i++ {
			mean += u.At(i, j)
		}
		mean /= float64(u.Rows())
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("eigenflow %d mean %v", j, mean)
		}
	}
}

func TestScoresVarianceMatchesEigenvalues(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	x := lowRankData(rng, 250, 9, 3, 0.5)
	p, err := FitPCA(x, true)
	if err != nil {
		t.Fatal(err)
	}
	s := scores(p, x)
	n := float64(s.Rows())
	for j := 0; j < s.Cols(); j++ {
		var ss float64
		for i := 0; i < s.Rows(); i++ {
			v := s.At(i, j)
			ss += v * v
		}
		varj := ss / (n - 1)
		if math.Abs(varj-p.Eigenvalues[j]) > 1e-6*(1+p.Eigenvalues[j]) {
			t.Fatalf("score variance %v != eigenvalue %v (component %d)", varj, p.Eigenvalues[j], j)
		}
	}
}

// Property: for any k, ||xc_j||^2 == ||xhat_j||^2 + ||xtilde_j||^2 per row
// (Pythagoras: modeled and residual are orthogonal projections).
func TestPropProjectionPythagoras(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed|1))
		n := 30 + int(seed%30)
		p := 4 + int((seed>>4)%6)
		x := lowRankData(rng, n, p, 2, 1)
		pca, err := FitPCA(x, true)
		if err != nil {
			return false
		}
		k := 1 + int(seed%uint64(p))
		modeled, residual := projectionSplit(pca, x, k)
		xc := center(pca, x)
		for i := 0; i < n; i++ {
			lhs := Dot(xc.RowView(i), xc.RowView(i))
			rhs := Dot(modeled.RowView(i), modeled.RowView(i)) + Dot(residual.RowView(i), residual.RowView(i))
			if math.Abs(lhs-rhs) > 1e-6*(1+lhs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: residual norms are monotonically non-increasing in k.
func TestPropResidualMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed^0xff, seed))
		x := lowRankData(rng, 40, 6, 3, 1)
		pca, err := FitPCA(x, true)
		if err != nil {
			return false
		}
		prev := math.Inf(1)
		for k := 0; k <= 6; k++ {
			_, residual := projectionSplit(pca, x, k)
			var total float64
			for i := 0; i < residual.Rows(); i++ {
				total += Dot(residual.RowView(i), residual.RowView(i))
			}
			if total > prev+1e-6 {
				return false
			}
			prev = total
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSymEigen121(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	a := randomSymmetric(rng, 121)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SymEigen(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitPCAWeek(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 2))
	x := lowRankData(rng, 2016, 121, 5, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitPCA(x, true); err != nil {
			b.Fatal(err)
		}
	}
}
