// Package mat provides the small dense linear-algebra kernel used by the
// subspace method: row-major matrices, a cyclic Jacobi symmetric
// eigendecomposition, and PCA helpers.
//
// The package is deliberately minimal and stdlib-only. The problem sizes in
// this repository are small by numerical-computing standards (the
// covariance of the Abilene OD-flow matrix is 121x121, geant's 529x529), so
// clarity and robustness are preferred over cache blocking, assembly or
// SIMD. The superlinear kernels — Mul, Gram, MulABt and MulAtB, and through
// them Covariance, FitPCA and FitPCAPartial — split their row ranges across
// goroutines when the flop count warrants it (see SetWorkers for the
// tunable pool size), and the three accumulation kernels under the fits are
// register-tiled in plain Go, bit-identical to the simple loops they
// replaced (parallel.go).
package mat

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64.
//
// The zero value is an empty matrix; use New or NewFromRows to construct a
// usable one. Matrix values are mutable; methods that return a new Matrix
// never alias the receiver's backing storage.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zeroed rows x cols matrix. It panics if either dimension is
// negative or the product overflows.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewFromRows builds a matrix from a slice of equal-length rows. The data is
// copied. It returns an error if rows are ragged or empty.
func NewFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, errors.New("mat: no rows")
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			return nil, fmt.Errorf("mat: ragged input: row %d has %d entries, want %d", i, len(r), c)
		}
		copy(m.data[i*c:(i+1)*c], r)
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RowView returns row i as a slice sharing the matrix's backing storage.
// Mutating the returned slice mutates the matrix.
func (m *Matrix) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: col %d out of range %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetCol assigns column j from v, which must have length Rows().
func (m *Matrix) SetCol(j int, v []float64) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("mat: SetCol length %d, want %d", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// HeadRows returns the first n rows of m as a view sharing the backing
// storage — no copy, unlike most Matrix methods. Mutating either matrix
// mutates the other. Fits clone their input, so passing a view is the
// allocation-free way to train on a leading window of a larger matrix.
func (m *Matrix) HeadRows(n int) *Matrix {
	if n < 0 || n > m.rows {
		panic(fmt.Sprintf("mat: HeadRows %d out of range %d", n, m.rows))
	}
	return &Matrix{rows: n, cols: m.cols, data: m.data[:n*m.cols]}
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		ri := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range ri {
			out.data[j*out.cols+i] = v
		}
	}
	return out
}

// Mul returns the matrix product a*b. It panics on dimension mismatch.
// Large products are computed by Workers() goroutines over disjoint row
// blocks of a.
func Mul(a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, b.cols)
	w := Workers()
	if w <= 1 || a.rows*a.cols*b.cols < parallelFlopThreshold {
		mulRange(out, a, b, 0, a.rows)
		return out
	}
	parallelRows(a.rows, w, func(lo, hi int) { mulRange(out, a, b, lo, hi) })
	return out
}

// MulVec returns the matrix-vector product m*v.
func MulVec(m *Matrix, v []float64) []float64 {
	if m.cols != len(v) {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %dx%d * %d", m.rows, m.cols, len(v)))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, rv := range row {
			s += rv * v[j]
		}
		out[i] = s
	}
	return out
}

// Add returns a+b as a new matrix.
func Add(a, b *Matrix) *Matrix {
	sameShape(a, b, "Add")
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out
}

// Scale returns c*m as a new matrix.
func Scale(c float64, m *Matrix) *Matrix {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= c
	}
	return out
}

func sameShape(a, b *Matrix, op string) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}

// ColMeans returns the per-column means of m.
func (m *Matrix) ColMeans() []float64 {
	means := make([]float64, m.cols)
	if m.rows == 0 {
		return means
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			means[j] += v
		}
	}
	inv := 1 / float64(m.rows)
	for j := range means {
		means[j] *= inv
	}
	return means
}

// CenterColumns subtracts the column means in place and returns the means
// that were removed.
func (m *Matrix) CenterColumns() []float64 {
	means := m.ColMeans()
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j := range row {
			row[j] -= means[j]
		}
	}
	return means
}

// Gram returns the Gram matrix m^T m (cols x cols), exploiting symmetry.
// Large accumulations run on Workers() goroutines, each summing a private
// partial triangle that is reduced at the end.
func (m *Matrix) Gram() *Matrix {
	w := Workers()
	if w <= 1 || m.rows*m.cols*m.cols/2 < parallelFlopThreshold {
		out := New(m.cols, m.cols)
		gramUpper(out, m, 0, m.rows)
		mirrorUpper(out)
		return out
	}
	return gramParallel(m, w)
}

// Covariance returns the sample covariance matrix of the columns of m,
// (Xc^T Xc)/(n-1) with Xc the column-centered data. m is not modified.
func (m *Matrix) Covariance() *Matrix {
	if m.rows < 2 {
		panic("mat: Covariance needs at least 2 rows")
	}
	c := m.Clone()
	c.CenterColumns()
	g := c.Gram()
	return Scale(1/float64(m.rows-1), g)
}

// Norm2 returns the Euclidean (Frobenius) norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Dot returns the dot product of a and b, which must have equal length.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// MaxAbsDiff returns the largest absolute elementwise difference between a
// and b. Useful in tests.
func MaxAbsDiff(a, b *Matrix) float64 {
	sameShape(a, b, "MaxAbsDiff")
	var max float64
	for i, v := range a.data {
		d := math.Abs(v - b.data[i])
		if d > max {
			max = d
		}
	}
	return max
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// IsSymmetric reports whether m is square and symmetric to within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.data[i*m.cols+j]-m.data[j*m.cols+i]) > tol {
				return false
			}
		}
	}
	return true
}

// String renders a small matrix for debugging; large matrices are elided.
func (m *Matrix) String() string {
	if m.rows*m.cols > 100 {
		return fmt.Sprintf("Matrix(%dx%d)", m.rows, m.cols)
	}
	s := ""
	for i := 0; i < m.rows; i++ {
		s += fmt.Sprintf("%v\n", m.RowView(i))
	}
	return s
}
