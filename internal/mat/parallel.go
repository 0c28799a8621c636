package mat

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// The dense kernels with superlinear work (Mul, Gram, and everything built
// on them: Covariance, FitPCA, Scores, ProjectionSplit) split their row
// ranges across a pool of goroutines when the flop count is large enough to
// amortize goroutine startup. The pool size is a package-level tunable so
// callers embedding the kernels in their own concurrent pipelines (one
// scoring worker per traffic measure, say) can budget cores explicitly.

// workerCount is the number of goroutines a single parallel kernel
// invocation may use. Guarded by atomic access; defaults to GOMAXPROCS.
var workerCount atomic.Int64

func init() { workerCount.Store(int64(runtime.GOMAXPROCS(0))) }

// SetWorkers sets the number of goroutines the parallel kernels may use and
// returns the previous setting. n < 1 resets to runtime.GOMAXPROCS(0).
// It is safe to call concurrently with running kernels: in-flight calls
// keep the worker count they started with.
func SetWorkers(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(workerCount.Swap(int64(n)))
}

// Workers returns the current parallel-kernel worker count.
func Workers() int { return int(workerCount.Load()) }

// parallelFlopThreshold is the approximate multiply-add count below which
// the serial kernels win: spawning a goroutine costs on the order of a
// microsecond, which buys ~10^4-10^5 flops of dense arithmetic.
const parallelFlopThreshold = 1 << 16

// parallelRows splits [0, n) into at most w contiguous chunks and runs fn
// on each concurrently, returning when all chunks are done. fn must only
// write state disjoint per row range.
func parallelRows(n, w int, fn func(lo, hi int)) {
	if w > n {
		w = n
	}
	if w <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// mulRange computes rows [lo, hi) of out = a*b. Row i of out depends only
// on row i of a, so disjoint ranges never race.
func mulRange(out, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		// ikj loop order: stream through b rows for locality.
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// The three accumulation kernels below — gramUpper, MulABt's and MulAtB's —
// are register-tiled: one pass over the operands feeds several output
// elements, so each loaded value is used four or eight times instead of
// once. Tiling changes which elements are computed together, never the
// order in which one element's products are added: every output is still
// the left-to-right sum over the same index sequence as the untiled loop
// (kept as the reference in kernels_test.go), so for finite input the
// results are bit-identical to it — including where the compiler fuses
// multiply-adds, since tile and reference fuse the same expressions. The
// reference skips zero multiplicands; for finite input adding their ±0
// products changes no bit, and the tiles do not test for them.

// atbRange accumulates rows [lo, hi) of a and b into out += aᵀb, four input
// rows and two output rows per pass. With upper set (a and b the same
// matrix) only columns from the diagonal rightwards are touched in each
// output row, which leaves the first sub-diagonal holding a value the
// caller's mirrorUpper overwrites with itself.
func atbRange(out, a, b *Matrix, lo, hi int, upper bool) {
	ac, bc := a.cols, b.cols
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0, a1 := a.data[i*ac:(i+1)*ac], a.data[(i+1)*ac:(i+2)*ac]
		a2, a3 := a.data[(i+2)*ac:(i+3)*ac], a.data[(i+3)*ac:(i+4)*ac]
		j := 0
		for ; j+2 <= ac; j += 2 {
			c0 := 0
			if upper {
				c0 = j
			}
			o0 := out.data[j*bc+c0 : (j+1)*bc]
			o1 := out.data[(j+1)*bc+c0 : (j+2)*bc][:len(o0)]
			x0 := b.data[i*bc+c0 : (i+1)*bc][:len(o0)]
			x1 := b.data[(i+1)*bc+c0 : (i+2)*bc][:len(o0)]
			x2 := b.data[(i+2)*bc+c0 : (i+3)*bc][:len(o0)]
			x3 := b.data[(i+3)*bc+c0 : (i+4)*bc][:len(o0)]
			p0, p1, p2, p3 := a0[j], a1[j], a2[j], a3[j]
			q0, q1, q2, q3 := a0[j+1], a1[j+1], a2[j+1], a3[j+1]
			for c := range o0 {
				v0, v1, v2, v3 := x0[c], x1[c], x2[c], x3[c]
				o0[c] = o0[c] + p0*v0 + p1*v1 + p2*v2 + p3*v3
				o1[c] = o1[c] + q0*v0 + q1*v1 + q2*v2 + q3*v3
			}
		}
		if j < ac { // odd last output row: untiled, same order
			atbRows(out, a, b, i, i+4, j, upper)
		}
	}
	atbRows(out, a, b, i, hi, 0, upper)
}

// atbRows is atbRange one rank-1 update at a time, for output rows from
// jlo on: the tile's edges.
func atbRows(out, a, b *Matrix, lo, hi, jlo int, upper bool) {
	ac, bc := a.cols, b.cols
	for i := lo; i < hi; i++ {
		arow := a.data[i*ac : (i+1)*ac]
		for j := jlo; j < ac; j++ {
			c0 := 0
			if upper {
				c0 = j
			}
			av := arow[j]
			orow := out.data[j*bc+c0 : (j+1)*bc]
			brow := b.data[i*bc+c0 : (i+1)*bc][:len(orow)]
			for c, bv := range brow {
				orow[c] += av * bv
			}
		}
	}
}

// gramUpper accumulates the upper triangle of m[lo:hi]^T m[lo:hi] into out
// (cols x cols). Callers sum partial results and mirror the triangle.
func gramUpper(out *Matrix, m *Matrix, lo, hi int) { atbRange(out, m, m, lo, hi, true) }

// abtRange computes rows [lo, hi) of out = a*bᵀ, four dot products sharing
// one pass over the row of a.
func abtRange(out, a, b *Matrix, lo, hi int) {
	n := a.cols
	for i := lo; i < hi; i++ {
		arow := a.data[i*n : (i+1)*n]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		j := 0
		for ; j+4 <= len(orow); j += 4 {
			b0 := b.data[j*n : (j+1)*n][:len(arow)]
			b1 := b.data[(j+1)*n : (j+2)*n][:len(arow)]
			b2 := b.data[(j+2)*n : (j+3)*n][:len(arow)]
			b3 := b.data[(j+3)*n : (j+4)*n][:len(arow)]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < len(orow); j++ {
			orow[j] = Dot(arow, b.data[j*n:(j+1)*n])
		}
	}
}

// gramParallel computes the full Gram matrix m^T m using w workers, each
// accumulating a private upper-triangular partial that is reduced serially.
// The reduction is O(w p²), negligible against the O(n p²/2) accumulation.
func gramParallel(m *Matrix, w int) *Matrix {
	partials := make([]*Matrix, w)
	var wg sync.WaitGroup
	chunk := (m.rows + w - 1) / w
	slot := 0
	for lo := 0; lo < m.rows; lo += chunk {
		hi := lo + chunk
		if hi > m.rows {
			hi = m.rows
		}
		p := New(m.cols, m.cols)
		partials[slot] = p
		wg.Add(1)
		go func(p *Matrix, lo, hi int) {
			defer wg.Done()
			gramUpper(p, m, lo, hi)
		}(p, lo, hi)
		slot++
	}
	wg.Wait()
	out := partials[0]
	for _, p := range partials[1:slot] {
		for i, v := range p.data {
			out.data[i] += v
		}
	}
	mirrorUpper(out)
	return out
}

// MulABt returns a * bᵀ without materializing the transpose: out[i][j] is
// the dot product of row i of a and row j of b, so both operands stream
// contiguous memory. It panics on dimension mismatch. Rows of the output
// are split across Workers() goroutines; each element is accumulated by
// exactly one goroutine in a fixed order, so the result is bit-identical
// for every worker count.
func MulABt(a, b *Matrix) *Matrix {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: MulABt dimension mismatch %dx%d * (%dx%d)T", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, b.rows)
	kernel := func(lo, hi int) { abtRange(out, a, b, lo, hi) }
	w := Workers()
	if w <= 1 || a.rows*a.cols*b.rows < parallelFlopThreshold {
		kernel(0, a.rows)
		return out
	}
	parallelRows(a.rows, w, kernel)
	return out
}

// MulAtB returns aᵀ * b (a and b sharing their row dimension) without
// materializing the transpose: the rows of a and b are streamed once,
// accumulating rank-1 updates into the output. Large inputs are split into
// row blocks with per-worker partial outputs reduced in block order — the
// same scheme as the Gram kernel, so results are deterministic for a fixed
// worker count.
func MulAtB(a, b *Matrix) *Matrix {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: MulAtB dimension mismatch (%dx%d)T * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	w := Workers()
	if w <= 1 || a.rows*a.cols*b.cols < parallelFlopThreshold {
		out := New(a.cols, b.cols)
		atbRange(out, a, b, 0, a.rows, false)
		return out
	}
	if w > a.rows {
		w = a.rows
	}
	partials := make([]*Matrix, w)
	var wg sync.WaitGroup
	chunk := (a.rows + w - 1) / w
	slot := 0
	for lo := 0; lo < a.rows; lo += chunk {
		hi := lo + chunk
		if hi > a.rows {
			hi = a.rows
		}
		p := New(a.cols, b.cols)
		partials[slot] = p
		wg.Add(1)
		go func(p *Matrix, lo, hi int) {
			defer wg.Done()
			atbRange(p, a, b, lo, hi, false)
		}(p, lo, hi)
		slot++
	}
	wg.Wait()
	out := partials[0]
	for _, p := range partials[1:slot] {
		for i, v := range p.data {
			out.data[i] += v
		}
	}
	return out
}

// mirrorUpper copies the upper triangle of a square matrix onto the lower.
func mirrorUpper(m *Matrix) {
	for a := 0; a < m.rows; a++ {
		for b := a + 1; b < m.cols; b++ {
			m.data[b*m.cols+a] = m.data[a*m.cols+b]
		}
	}
}
