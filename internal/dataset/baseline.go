package dataset

import (
	"math"
	"slices"
	"sync"

	"netwide/internal/mat"
)

// todBins is the number of bins in a seasonal cycle (one day).
const todBins = 288

// baselineBlockCols is how many OD columns one baseline computation
// covers: the block is gathered from sequential row reads, so a column
// costs a 64th of a pass over the matrix instead of a strided walk of it.
const baselineBlockCols = 64

// Baseline is the seasonal (time-of-day) robust baseline of one OD column
// under one measure: the per-time-of-day median across days, plus the
// scaled MAD of the deseasonalized residuals. Removing the diurnal cycle
// before computing the deviation scale is essential — otherwise the cycle
// itself inflates the MAD and level shifts look unremarkable.
//
// A Baseline returned by Dataset.Baseline is shared by every caller and
// must not be modified.
type Baseline struct {
	// Med holds the median of each time of day, one per bin of a day.
	Med []float64
	// MAD is the scaled median absolute deviation from Med.
	MAD float64
}

// baselines memoises Baseline per (measure, block of OD columns). The zero
// value is ready to use.
type baselines struct {
	once   sync.Once
	blocks [NumMeasures][]baselineBlock
}

// baselineBlock is one block's baselines, computed by whichever caller
// gets there first.
type baselineBlock struct {
	once sync.Once
	b    []Baseline
}

// Baseline returns the seasonal baseline of OD column od under measure m.
// It is a pure function of the column, and the matrices do not change
// after Generate or Load, so it is computed once per dataset, with the
// other columns of its block, by the first caller; every later call
// returns the same value. Concurrent first calls wait for one computation.
func (d *Dataset) Baseline(m Measure, od int) *Baseline {
	d.baselines.once.Do(func() {
		for m := range d.baselines.blocks {
			cols := d.X[m].Cols()
			d.baselines.blocks[m] = make([]baselineBlock, (cols+baselineBlockCols-1)/baselineBlockCols)
		}
	})
	i := od / baselineBlockCols
	blk := &d.baselines.blocks[m][i]
	blk.once.Do(func() {
		lo := i * baselineBlockCols
		blk.b = computeBaselines(d.X[m], lo, min(lo+baselineBlockCols, d.X[m].Cols()))
	})
	return &blk.b[od-i*baselineBlockCols]
}

// computeBaselines returns the baselines of columns [lo, hi) of x.
func computeBaselines(x *mat.Matrix, lo, hi int) []Baseline {
	n, w := x.Rows(), hi-lo
	// block holds the columns one after another, n values each.
	block := make([]float64, w*n)
	for i := 0; i < n; i++ {
		for j, v := range x.RowView(i)[lo:hi] {
			block[j*n+i] = v
		}
	}
	days := (n + todBins - 1) / todBins
	day := make([]float64, days)
	med := make([]float64, w*todBins)
	out := make([]Baseline, w)
	for j := range out {
		col := block[j*n : (j+1)*n]
		b := &out[j]
		b.Med = med[j*todBins : (j+1)*todBins : (j+1)*todBins]
		for tod := range b.Med {
			xs := day[:0]
			for i := tod; i < n; i += todBins {
				xs = append(xs, col[i])
			}
			slices.Sort(xs)
			b.Med[tod] = medianSorted(xs)
		}
		for i, v := range col {
			col[i] = math.Abs(v - b.Med[i%todBins])
		}
		b.MAD = medianSelect(col) * 1.4826
	}
	return out
}

// medianSorted is the median of ascending xs (0 when empty).
func medianSorted(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return 0.5 * (xs[n/2-1] + xs[n/2])
}

// medianSelect is the median of xs, which it reorders: a quickselect for
// the upper middle element, then, for an even count, the largest of what
// was left below it. The same two order statistics a sort would give.
func medianSelect(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	k := n / 2
	for lo, hi := 0, n-1; lo < hi; {
		// Median-of-three pivot, then Hoare partition.
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for pivot < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			lo, hi = k, k // j < k < i: xs[k] equals the pivot, in place
		}
	}
	if n%2 == 1 {
		return xs[k]
	}
	return 0.5 * (slices.Max(xs[:k]) + xs[k])
}
