package classify

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"netwide/internal/anomaly"
	"netwide/internal/dataset"
	"netwide/internal/events"
	"netwide/internal/heavyhitter"
)

func TestClassString(t *testing.T) {
	if ClassAlpha.String() != "ALPHA" || ClassFalseAlarm.String() != "FALSE-ALARM" {
		t.Fatal("class names wrong")
	}
	if Class(99).String() != "Class(99)" {
		t.Fatal("unknown class name wrong")
	}
}

func TestFromAnomalyType(t *testing.T) {
	cases := map[anomaly.Type]Class{
		anomaly.Alpha:           ClassAlpha,
		anomaly.DOS:             ClassDOS,
		anomaly.DDOS:            ClassDDOS,
		anomaly.FlashCrowd:      ClassFlash,
		anomaly.Scan:            ClassScan,
		anomaly.Worm:            ClassWorm,
		anomaly.PointMultipoint: ClassPointMultipoint,
		anomaly.Outage:          ClassOutage,
		anomaly.IngressShift:    ClassIngressShift,
	}
	for typ, want := range cases {
		if got := FromAnomalyType(typ); got != want {
			t.Fatalf("FromAnomalyType(%v)=%v, want %v", typ, got, want)
		}
	}
	if FromAnomalyType(anomaly.Type(99)) != ClassUnknown {
		t.Fatal("unknown type should map to UNKNOWN")
	}
}

// median and refBaseline are baseline as it was before it gathered by
// stride, sorted in place and selected the MAD: per-time-of-day slices grown
// by append, every median a copy and a full sort. Kept as the reference the
// fast one must match bit for bit.
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

func refBaseline(ds *dataset.Dataset, m dataset.Measure, od int) *seasonalBaseline {
	col := ds.Matrix(m).Col(od)
	sb := &seasonalBaseline{}
	perTod := make([][]float64, todBins)
	for i, v := range col {
		tod := i % todBins
		perTod[tod] = append(perTod[tod], v)
	}
	sb.med = make([]float64, todBins)
	for tod, xs := range perTod {
		sb.med[tod] = median(xs)
	}
	dev := make([]float64, len(col))
	for i, v := range col {
		dev[i] = math.Abs(v - sb.med[i%todBins])
	}
	sb.mad = median(dev) * 1.4826
	return sb
}

// TestBaselineMatchesReference: every OD pair under every measure of the
// quick abilene week, bit for bit.
func TestBaselineMatchesReference(t *testing.T) {
	cfg := dataset.DefaultConfig()
	cfg.Weeks, cfg.MeanRateBps = 1, 8e5
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := New(ds)
	for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
		for od := 0; od < ds.NumODPairs(); od++ {
			got, want := c.baseline(m, od), refBaseline(ds, m, od)
			if math.Float64bits(got.mad) != math.Float64bits(want.mad) {
				t.Fatalf("%v OD %d: MAD %v, reference %v", m, od, got.mad, want.mad)
			}
			for tod := range want.med {
				if math.Float64bits(got.med[tod]) != math.Float64bits(want.med[tod]) {
					t.Fatalf("%v OD %d time of day %d: median %v, reference %v", m, od, tod, got.med[tod], want.med[tod])
				}
			}
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

func TestSeasonalBaselineZ(t *testing.T) {
	sb := &seasonalBaseline{med: make([]float64, todBins), mad: 2}
	sb.med[5] = 100
	if z := sb.z(106, 5); z != 3 {
		t.Fatalf("z=%v, want 3", z)
	}
	if z := sb.z(94, 5+todBins); z != 3 {
		t.Fatalf("seasonal wrap z=%v, want 3", z)
	}
	// Degenerate MAD falls back to 1.
	sb.mad = 0
	if z := sb.z(103, 5); z != 3 {
		t.Fatalf("degenerate-mad z=%v", z)
	}
}

func TestIsFlashPort(t *testing.T) {
	if !isFlashPort(80) || !isFlashPort(53) || !isFlashPort(443) {
		t.Fatal("well-known service ports must qualify")
	}
	if isFlashPort(0) || isFlashPort(1433) || isFlashPort(110) {
		t.Fatal("attack ports must not qualify")
	}
}

func TestDominantInRespectsMeasureSet(t *testing.T) {
	// A summary where srcAddr dominates by bytes only.
	s := &dataset.AttributeSummary{}
	for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
		for d := dataset.Dim(0); d < dataset.NumDims; d++ {
			s.Sketch[m][d] = newSketchWith(map[uint64]float64{1: 1})
		}
	}
	s.Sketch[dataset.Bytes][dataset.SrcAddr] = newSketchWith(map[uint64]float64{42: 90, 1: 10})
	s.Total[dataset.Bytes] = 100
	s.Sketch[dataset.Flows][dataset.SrcAddr] = newSketchWith(map[uint64]float64{1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1})
	s.Total[dataset.Flows] = 6

	if _, dom := dominantIn(s, dataset.SrcAddr, 0.2, events.SetB); !dom {
		t.Fatal("byte dominance not seen in B set")
	}
	if _, dom := dominantIn(s, dataset.SrcAddr, 0.2, events.SetF); dom {
		t.Fatal("flow set must not inherit byte dominance")
	}
	if _, dom := dominantIn(s, dataset.SrcAddr, 0.2, events.SetB|events.SetF); !dom {
		t.Fatal("union set must see byte dominance")
	}
}

func newSketchWith(items map[uint64]float64) *heavyhitter.Sketch {
	sk := heavyhitter.New(32)
	for k, w := range items {
		sk.Add(k, w)
	}
	return sk
}
