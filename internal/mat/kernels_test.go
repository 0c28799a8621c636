package mat

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
)

// The untiled loops the register-tiled kernels in parallel.go replaced,
// kept as their reference: the tiles must reproduce them bit for bit.

func refGramUpper(out *Matrix, m *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for a, va := range row {
			if va == 0 {
				continue
			}
			orow := out.data[a*out.cols : (a+1)*out.cols]
			for b := a; b < len(row); b++ {
				orow[b] += va * row[b]
			}
		}
	}
}

func refABtRange(out, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for j := range orow {
			orow[j] = Dot(arow, b.data[j*b.cols:(j+1)*b.cols])
		}
	}
}

func refAtBRange(out, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		brow := b.data[i*b.cols : (i+1)*b.cols]
		for j, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.data[j*out.cols : (j+1)*out.cols]
			for c, bv := range brow {
				orow[c] += av * bv
			}
		}
	}
}

// refChunked runs acc over the row chunks the parallel kernels cut for w
// workers and sums the partial outputs in chunk order — MulAtB's and
// Gram's reduction, around a reference inner loop.
func refChunked(rows, outRows, outCols, w int, acc func(out *Matrix, lo, hi int)) *Matrix {
	if w > rows {
		w = rows
	}
	if w <= 1 {
		out := New(outRows, outCols)
		acc(out, 0, rows)
		return out
	}
	var partials []*Matrix
	var wg sync.WaitGroup
	chunk := (rows + w - 1) / w
	for lo := 0; lo < rows; lo += chunk {
		p := New(outRows, outCols)
		partials = append(partials, p)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			acc(p, lo, hi)
		}(lo, min(lo+chunk, rows))
	}
	wg.Wait()
	out := partials[0]
	for _, p := range partials[1:] {
		for i, v := range p.data {
			out.data[i] += v
		}
	}
	return out
}

// kernelOperand is a rows x cols matrix of normal draws with a few exact
// zeros sprinkled in and, when rows allow, one all-zero row — the inputs on
// which the reference takes its skip branch and the tiles do not.
func kernelOperand(rng *rand.Rand, rows, cols int) *Matrix {
	m := randomMatrix(rng, rows, cols)
	for i := range m.data {
		if rng.IntN(7) == 0 {
			m.data[i] = 0
		}
	}
	if rows > 2 {
		clear(m.RowView(rows / 2))
	}
	return m
}

func sameBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if got.rows != want.rows || got.cols != want.cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.rows, got.cols, want.rows, want.cols)
	}
	for i, v := range got.data {
		if math.Float64bits(v) != math.Float64bits(want.data[i]) {
			t.Fatalf("%s: element (%d,%d) = %x, reference %x", what, i/got.cols, i%got.cols,
				math.Float64bits(v), math.Float64bits(want.data[i]))
		}
	}
}

// kernelSizes are deliberately not multiples of the 2- and 4-wide tiles.
var kernelSizes = []int{0, 1, 3, 5, 17}

// TestKernelsBitIdenticalToReference checks every tiled kernel against its
// untiled reference on shapes around the tile edges, serially (any flop
// count) and through the public entry points at every worker count.
func TestKernelsBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 4))
	for _, n := range kernelSizes { // shared (inner) dimension
		for _, r := range kernelSizes {
			for _, c := range kernelSizes {
				// MulABt: (r x n)(c x n)ᵀ.
				a, b := kernelOperand(rng, r, n), kernelOperand(rng, c, n)
				got, want := New(r, c), New(r, c)
				abtRange(got, a, b, 0, r)
				refABtRange(want, a, b, 0, r)
				sameBits(t, fmt.Sprintf("abtRange %dx%d·(%dx%d)ᵀ", r, n, c, n), got, want)

				// MulAtB: (n x r)ᵀ(n x c).
				a, b = kernelOperand(rng, n, r), kernelOperand(rng, n, c)
				got, want = New(r, c), New(r, c)
				atbRange(got, a, b, 0, n, false)
				refAtBRange(want, a, b, 0, n)
				sameBits(t, fmt.Sprintf("atbRange (%dx%d)ᵀ·%dx%d", n, r, n, c), got, want)
			}
			// Gram: (n x r)ᵀ(n x r), upper triangle then mirrored.
			m := kernelOperand(rng, n, r)
			got, want := New(r, r), New(r, r)
			gramUpper(got, m, 0, n)
			refGramUpper(want, m, 0, n)
			mirrorUpper(got)
			mirrorUpper(want)
			sameBits(t, fmt.Sprintf("gramUpper %dx%d", n, r), got, want)
		}
	}

	// Through the public entry points, above the parallel threshold, at
	// worker counts that cut the rows into chunks of every alignment.
	a, b := kernelOperand(rng, 203, 61), kernelOperand(rng, 29, 61)
	c := kernelOperand(rng, 203, 37)
	defer SetWorkers(SetWorkers(1))
	for w := 1; w <= 5; w++ {
		SetWorkers(w)
		want := New(a.rows, b.rows)
		refABtRange(want, a, b, 0, a.rows)
		sameBits(t, fmt.Sprintf("MulABt workers=%d", w), MulABt(a, b), want)

		want = refChunked(a.rows, a.cols, c.cols, w, func(out *Matrix, lo, hi int) { refAtBRange(out, a, c, lo, hi) })
		sameBits(t, fmt.Sprintf("MulAtB workers=%d", w), MulAtB(a, c), want)

		want = refChunked(a.rows, a.cols, a.cols, w, func(out *Matrix, lo, hi int) { refGramUpper(out, a, lo, hi) })
		mirrorUpper(want)
		sameBits(t, fmt.Sprintf("Gram workers=%d", w), a.Gram(), want)
	}
}

// TestKernelsBitIdenticalAtFitShapes repeats the check on the shapes the
// geant fit runs the kernels at, scaled down in rows only.
func TestKernelsBitIdenticalAtFitShapes(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 5))
	const n, p, b = 301, 529, 24
	x, qt := randomMatrix(rng, n, p), randomMatrix(rng, b, p)

	y, want := New(n, b), New(n, b)
	abtRange(y, x, qt, 0, n)
	refABtRange(want, x, qt, 0, n)
	sameBits(t, "Xc·Q", y, want)

	zt, want := New(b, p), New(b, p)
	atbRange(zt, y, x, 0, n, false)
	refAtBRange(want, y, x, 0, n)
	sameBits(t, "Yᵀ·Xc", zt, want)

	g, want := New(p, p), New(p, p)
	gramUpper(g, x, 0, n)
	refGramUpper(want, x, 0, n)
	mirrorUpper(g)
	mirrorUpper(want)
	sameBits(t, "XcᵀXc", g, want)
}

func benchKernel(b *testing.B, tiled, ref func()) {
	b.Run("tiled", func(b *testing.B) {
		for b.Loop() {
			tiled()
		}
	})
	b.Run("reference", func(b *testing.B) {
		for b.Loop() {
			ref()
		}
	})
}

// BenchmarkKernels times each tiled kernel beside its reference, single
// threaded, at the geant fit's shapes (n = 2016, p = 529, b = 24).
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewPCG(20, 6))
	const n, p, blk = 2016, 529, 24
	x, qt := randomMatrix(rng, n, p), randomMatrix(rng, blk, p)
	y := New(n, blk)
	abtRange(y, x, qt, 0, n)
	b.Run("MulABt", func(b *testing.B) {
		out := New(n, blk)
		benchKernel(b, func() { abtRange(out, x, qt, 0, n) }, func() { refABtRange(out, x, qt, 0, n) })
	})
	b.Run("MulAtB", func(b *testing.B) {
		out := New(blk, p)
		benchKernel(b, func() { atbRange(out, y, x, 0, n, false) }, func() { refAtBRange(out, y, x, 0, n) })
	})
	b.Run("gramUpper", func(b *testing.B) {
		out := New(p, p)
		benchKernel(b, func() { gramUpper(out, x, 0, n) }, func() { refGramUpper(out, x, 0, n) })
	})
}
