package mat

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestNewDimensions(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("got %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("new matrix not zeroed at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewFromRows(t *testing.T) {
	m, err := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1)=%v, want 6", m.At(2, 1))
	}
	if _, err := NewFromRows([][]float64{{1}, {2, 3}}); err == nil {
		t.Fatal("ragged input accepted")
	}
	if _, err := NewFromRows(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestNewFromDataAdopts: the matrix reads the caller's slice in place, row
// by row, and a length that is not rows*cols panics.
func TestNewFromDataAdopts(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := NewFromData(3, 2, data)
	if m.At(2, 1) != 6 || m.At(1, 0) != 3 {
		t.Fatalf("At(2,1)=%v At(1,0)=%v, want 6 and 3", m.At(2, 1), m.At(1, 0))
	}
	data[0] = 9
	if m.At(0, 0) != 9 {
		t.Fatal("NewFromData copied its input")
	}
	if z := NewFromData(0, 4, nil); z.Rows() != 0 || z.Cols() != 4 {
		t.Fatalf("empty matrix is %dx%d", z.Rows(), z.Cols())
	}
	for _, bad := range []struct{ r, c, n int }{{2, 2, 3}, {-1, 2, 0}, {2, 2, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d values for %dx%d accepted", bad.n, bad.r, bad.c)
				}
			}()
			NewFromData(bad.r, bad.c, make([]float64, bad.n))
		}()
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 0, 7.5)
	if m.At(1, 0) != 7.5 {
		t.Fatalf("At after Set = %v", m.At(1, 0))
	}
}

func TestIndexPanics(t *testing.T) {
	m := New(2, 2)
	for _, f := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(-1, 0, 1) },
		func() { m.Row(5) },
		func() { m.Col(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestTranspose(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows() != 3 || mt.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d", mt.Rows(), mt.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulKnown(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewFromRows([][]float64{{5, 6}, {7, 8}})
	c := Mul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d]=%v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	m := randomMatrix(rng, 5, 5)
	if d := MaxAbsDiff(Mul(m, Identity(5)), m); d > 1e-15 {
		t.Fatalf("M*I differs from M by %v", d)
	}
	if d := MaxAbsDiff(Mul(Identity(5), m), m); d > 1e-15 {
		t.Fatalf("I*M differs from M by %v", d)
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	m := randomMatrix(rng, 4, 6)
	v := make([]float64, 6)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	got := MulVec(m, v)
	vm := New(6, 1)
	vm.SetCol(0, v)
	want := Mul(m, vm)
	for i := range got {
		if !almostEqual(got[i], want.At(i, 0), 1e-12) {
			t.Fatalf("MulVec[%d]=%v, want %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestAddSubScale(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewFromRows([][]float64{{10, 20}, {30, 40}})
	if got := Add(a, b).At(1, 1); got != 44 {
		t.Fatalf("Add=%v, want 44", got)
	}
	if got := Scale(2, a).At(1, 0); got != 6 {
		t.Fatalf("Scale=%v, want 6", got)
	}
}

func TestColMeansAndCenter(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 10}, {3, 20}, {5, 30}})
	means := m.ColMeans()
	if !almostEqual(means[0], 3, 1e-15) || !almostEqual(means[1], 20, 1e-15) {
		t.Fatalf("means=%v", means)
	}
	c := m.Clone()
	c.CenterColumns()
	cm := c.ColMeans()
	for j, v := range cm {
		if !almostEqual(v, 0, 1e-12) {
			t.Fatalf("centered mean[%d]=%v", j, v)
		}
	}
}

func TestGramMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	m := randomMatrix(rng, 7, 4)
	g := m.Gram()
	want := Mul(m.T(), m)
	if d := MaxAbsDiff(g, want); d > 1e-12 {
		t.Fatalf("Gram differs from X^T X by %v", d)
	}
	if !g.IsSymmetric(1e-12) {
		t.Fatal("Gram not symmetric")
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Two perfectly correlated columns: cov = [[1,2],[2,4]] * var scale.
	m, _ := NewFromRows([][]float64{{0, 0}, {1, 2}, {2, 4}})
	cov := m.Covariance()
	if !almostEqual(cov.At(0, 0), 1, 1e-12) {
		t.Fatalf("cov00=%v, want 1", cov.At(0, 0))
	}
	if !almostEqual(cov.At(0, 1), 2, 1e-12) {
		t.Fatalf("cov01=%v, want 2", cov.At(0, 1))
	}
	if !almostEqual(cov.At(1, 1), 4, 1e-12) {
		t.Fatalf("cov11=%v, want 4", cov.At(1, 1))
	}
}

func TestNorm2AndDot(t *testing.T) {
	if got := Norm2([]float64{3, 4}); !almostEqual(got, 5, 1e-15) {
		t.Fatalf("Norm2=%v", got)
	}
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot=%v", got)
	}
}

func TestRowColViews(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	rv := m.RowView(0)
	rv[1] = 99
	if m.At(0, 1) != 99 {
		t.Fatal("RowView does not alias")
	}
	r := m.Row(1)
	r[0] = -1
	if m.At(1, 0) != 3 {
		t.Fatal("Row copy aliases backing store")
	}
	c := m.Col(0)
	if c[0] != 1 || c[1] != 3 {
		t.Fatalf("Col=%v", c)
	}
}

// Property: (A*B)^T == B^T * A^T.
func TestPropMulTranspose(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		r := 2 + int(seed%5)
		k := 2 + int((seed>>8)%5)
		c := 2 + int((seed>>16)%5)
		a := randomMatrix(rng, r, k)
		b := randomMatrix(rng, k, c)
		lhs := Mul(a, b).T()
		rhs := Mul(b.T(), a.T())
		return MaxAbsDiff(lhs, rhs) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix multiplication distributes over addition.
func TestPropMulDistributes(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, ^seed))
		a := randomMatrix(rng, 4, 3)
		b := randomMatrix(rng, 3, 5)
		c := randomMatrix(rng, 3, 5)
		lhs := Mul(a, Add(b, c))
		rhs := Add(Mul(a, b), Mul(a, c))
		return MaxAbsDiff(lhs, rhs) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: centering makes column means zero and is idempotent.
func TestPropCenterIdempotent(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed+1))
		m := randomMatrix(rng, 8, 4)
		for j := 0; j < 4; j++ {
			shift := rng.NormFloat64() * 100
			for i := 0; i < 8; i++ {
				m.Set(i, j, m.At(i, j)+shift)
			}
		}
		m.CenterColumns()
		first := m.Clone()
		m.CenterColumns()
		return MaxAbsDiff(first, m) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHeadRowsView(t *testing.T) {
	m := New(4, 3)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, float64(i*10+j))
		}
	}
	h := m.HeadRows(2)
	if h.Rows() != 2 || h.Cols() != 3 {
		t.Fatalf("HeadRows shape %dx%d", h.Rows(), h.Cols())
	}
	if h.At(1, 2) != 12 {
		t.Fatalf("HeadRows content %v", h.At(1, 2))
	}
	// It is a view: writes are visible both ways.
	h.Set(0, 0, -1)
	if m.At(0, 0) != -1 {
		t.Fatal("HeadRows did not share storage")
	}
	if h := m.HeadRows(0); h.Rows() != 0 {
		t.Fatal("empty head")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range HeadRows did not panic")
		}
	}()
	m.HeadRows(5)
}

func TestHeadColsCopy(t *testing.T) {
	m := New(3, 4)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			m.Set(i, j, float64(i*10+j))
		}
	}
	h := m.HeadCols(2)
	if h.Rows() != 3 || h.Cols() != 2 || h.At(2, 1) != 21 || h.At(1, 0) != 10 {
		t.Fatalf("HeadCols gave %v", h)
	}
	// It is a copy: writes stay on their side.
	h.Set(0, 0, -1)
	if m.At(0, 0) != 0 {
		t.Fatal("HeadCols shares storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range HeadCols did not panic")
		}
	}()
	m.HeadCols(5)
}
