package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"netwide/internal/mat"
)

// median and refBaseline are the classifier's baseline as it was before it
// gathered by stride, sorted in place and selected the MAD: per-time-of-day
// slices grown by append, every median a copy and a full sort. Kept as the
// reference the fast one must match bit for bit.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return 0.5 * (s[n/2-1] + s[n/2])
}

func refBaseline(ds *Dataset, m Measure, od int) *Baseline {
	col := ds.Matrix(m).Col(od)
	sb := &Baseline{}
	perTod := make([][]float64, todBins)
	for i, v := range col {
		tod := i % todBins
		perTod[tod] = append(perTod[tod], v)
	}
	sb.Med = make([]float64, todBins)
	for tod, xs := range perTod {
		sb.Med[tod] = median(xs)
	}
	dev := make([]float64, len(col))
	for i, v := range col {
		dev[i] = math.Abs(v - sb.Med[i%todBins])
	}
	sb.MAD = median(dev) * 1.4826
	return sb
}

// sameBaseline compares a baseline with the reference's on the bits.
func sameBaseline(t *testing.T, what string, got, want *Baseline) {
	t.Helper()
	if math.Float64bits(got.MAD) != math.Float64bits(want.MAD) {
		t.Fatalf("%s: MAD %v, reference %v", what, got.MAD, want.MAD)
	}
	if len(got.Med) != len(want.Med) {
		t.Fatalf("%s: %d time-of-day medians, reference %d", what, len(got.Med), len(want.Med))
	}
	for tod := range want.Med {
		if math.Float64bits(got.Med[tod]) != math.Float64bits(want.Med[tod]) {
			t.Fatalf("%s time of day %d: median %v, reference %v", what, tod, got.Med[tod], want.Med[tod])
		}
	}
}

// wideDataset is a dataset of bare matrices, bins x cols, with what the
// classifier's columns hold at geant: byte counts, small packet integers
// that tie constantly, and mostly-zero flow counts, each on a diurnal
// cycle. Baseline reads nothing else.
func wideDataset(bins, cols int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{Bins: bins}
	for m := range d.X {
		d.X[m] = mat.New(bins, cols)
	}
	for i := 0; i < bins; i++ {
		day := 1 + 0.6*math.Sin(2*math.Pi*float64(i%todBins)/todBins)
		for j := 0; j < cols; j++ {
			d.X[Bytes].Set(i, j, math.Round(day*float64(j%7+1)*1500*rng.ExpFloat64()))
			d.X[Packets].Set(i, j, float64(rng.Intn(1+int(4*day))))
			if rng.Intn(5) == 0 {
				d.X[Flows].Set(i, j, float64(1+rng.Intn(3)))
			}
		}
	}
	return d
}

// TestBaselineMatchesReference: every OD pair under every measure, bit for
// bit, on the quick abilene week (121 columns: one full block of 64 and a
// partial one, odd-length time-of-day groups) and on a geant-width
// two-week run (529 = 8x64 + 17 columns, even-length groups).
func TestBaselineMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		ds   *Dataset
	}{
		{"abilene week", quickDataset(t)},
		{"geant width, two weeks", wideDataset(2*2016, 529, 1)},
	} {
		for m := Measure(0); m < NumMeasures; m++ {
			for od := 0; od < tc.ds.X[m].Cols(); od++ {
				sameBaseline(t, fmt.Sprintf("%s, %v OD %d", tc.name, m, od), tc.ds.Baseline(m, od), refBaseline(tc.ds, m, od))
			}
		}
	}
}

// TestBaselinesOncePerDataset: every caller — each classifier on the
// dataset — gets the one Baseline computed for the column, and a column's
// first call computes its own block of one measure and nothing else.
func TestBaselinesOncePerDataset(t *testing.T) {
	d := wideDataset(2016, 529, 2)
	first := d.Baseline(Packets, 130) // block 2: columns 128-191
	for m := Measure(0); m < NumMeasures; m++ {
		for blk := range d.baselines.blocks[m] {
			if computed := d.baselines.blocks[m][blk].b != nil; computed != (m == Packets && blk == 2) {
				t.Fatalf("%v block %d computed=%v after one call for Packets OD 130", m, blk, computed)
			}
		}
	}
	if again := d.Baseline(Packets, 130); again != first {
		t.Fatalf("second call returned %p, first %p", again, first)
	}
	if last := d.Baseline(Flows, 528); len(d.baselines.blocks[Flows][8].b) != 17 || last != &d.baselines.blocks[Flows][8].b[16] {
		t.Fatal("the partial last block does not hold its 17 columns")
	}
}

// TestBaselinesOncePerDatasetRacingFirstCalls: eight goroutines asking a
// fresh dataset for every baseline at once, each starting at a different
// column, get one Baseline per column, equal to the reference. Two days
// of bins keep it cheap under -race -count=20.
func TestBaselinesOncePerDatasetRacingFirstCalls(t *testing.T) {
	d := wideDataset(2*todBins, 150, 3)
	const racers = 8
	cols := d.X[Bytes].Cols()
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		got   [racers][NumMeasures][]*Baseline
	)
	for i := range racers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for m := range got[i] {
				got[i][m] = make([]*Baseline, cols)
			}
			for n := range cols {
				od := (n + i*cols/racers) % cols
				for m := Measure(0); m < NumMeasures; m++ {
					got[i][m][od] = d.Baseline(m, od)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for m := Measure(0); m < NumMeasures; m++ {
		for od := range cols {
			for i := range racers {
				if got[i][m][od] != got[0][m][od] {
					t.Fatalf("%v OD %d: racer %d got %p, racer 0 got %p", m, od, i, got[i][m][od], got[0][m][od])
				}
			}
			sameBaseline(t, fmt.Sprintf("%v OD %d", m, od), got[0][m][od], refBaseline(d, m, od))
		}
	}
}

// TestMedianSelectMatchesSort on the inputs a quickselect gets wrong first:
// ties, runs, tiny and even-length slices.
func TestMedianSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 200; n++ {
		for _, distinct := range []int{1, 2, 5, 1 << 30} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(rng.Intn(distinct))
			}
			want := median(xs)
			if got := medianSelect(xs); got != want {
				t.Fatalf("n=%d, %d distinct values: medianSelect %v, sorted median %v", n, distinct, got, want)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if median(nil) != 0 {
		t.Fatal("empty median")
	}
	if median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median")
	}
	// Must not mutate caller data.
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Fatal("median sorted caller slice")
	}
}
