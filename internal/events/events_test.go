package events

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"netwide/internal/dataset"
)

func TestMeasureSetStrings(t *testing.T) {
	cases := map[MeasureSet]string{
		SetB:               "B",
		SetP:               "P",
		SetF:               "F",
		SetB | SetP:        "BP",
		SetB | SetF:        "BF",
		SetF | SetP:        "FP",
		SetB | SetF | SetP: "BFP",
		MeasureSet(0):      "-",
	}
	for set, want := range cases {
		if got := set.String(); got != want {
			t.Fatalf("%d -> %q, want %q", set, got, want)
		}
	}
	if len(AllSets()) != 7 {
		t.Fatal("AllSets incomplete")
	}
}

func TestMeasureSetOps(t *testing.T) {
	s := MeasureSet(0).With(dataset.Bytes).With(dataset.Flows)
	if !s.Has(dataset.Bytes) || !s.Has(dataset.Flows) || s.Has(dataset.Packets) {
		t.Fatalf("set ops wrong: %v", s)
	}
}

func TestAggregateMergesMeasures(t *testing.T) {
	// Same (bin, od) seen in bytes and packets -> one BP event.
	dets := []Detection{
		{Measure: dataset.Bytes, Bin: 10, ODs: []int{5}, Residuals: []float64{100}},
		{Measure: dataset.Packets, Bin: 10, ODs: []int{5}, Residuals: []float64{50}},
	}
	evs := Aggregate(dets)
	if len(evs) != 1 {
		t.Fatalf("events=%d, want 1", len(evs))
	}
	e := evs[0]
	if e.Measures.String() != "BP" {
		t.Fatalf("measures=%s", e.Measures)
	}
	if e.DurationBins() != 1 || len(e.ODs) != 1 || e.ODs[0] != 5 {
		t.Fatalf("event %+v", e)
	}
	if e.ODResidual[5] != 150 {
		t.Fatalf("residual %v", e.ODResidual[5])
	}
}

func TestAggregateKeepsDistinctSetsSeparate(t *testing.T) {
	// OD 1 in bytes only, OD 2 in flows only, same bin: two events.
	dets := []Detection{
		{Measure: dataset.Bytes, Bin: 20, ODs: []int{1}, Residuals: []float64{10}},
		{Measure: dataset.Flows, Bin: 20, ODs: []int{2}, Residuals: []float64{10}},
	}
	evs := Aggregate(dets)
	if len(evs) != 2 {
		t.Fatalf("events=%d, want 2", len(evs))
	}
}

func TestAggregateSpatialGrouping(t *testing.T) {
	// Two ODs alarmed in the same measure at the same bin: one event.
	dets := []Detection{
		{Measure: dataset.Flows, Bin: 30, ODs: []int{3, 9}, Residuals: []float64{5, 4}},
	}
	evs := Aggregate(dets)
	if len(evs) != 1 || len(evs[0].ODs) != 2 {
		t.Fatalf("events=%v", evs)
	}
}

func TestAggregateTemporalMerge(t *testing.T) {
	// Consecutive bins, same measure, overlapping OD: one event spanning
	// both bins.
	dets := []Detection{
		{Measure: dataset.Packets, Bin: 40, ODs: []int{7}, Residuals: []float64{8}},
		{Measure: dataset.Packets, Bin: 41, ODs: []int{7}, Residuals: []float64{9}},
		{Measure: dataset.Packets, Bin: 42, ODs: []int{7}, Residuals: []float64{7}},
	}
	evs := Aggregate(dets)
	if len(evs) != 1 {
		t.Fatalf("events=%d, want 1", len(evs))
	}
	if evs[0].StartBin != 40 || evs[0].EndBin != 42 || evs[0].DurationBins() != 3 {
		t.Fatalf("window %d-%d", evs[0].StartBin, evs[0].EndBin)
	}
}

func TestAggregateNoMergeAcrossGap(t *testing.T) {
	dets := []Detection{
		{Measure: dataset.Packets, Bin: 40, ODs: []int{7}, Residuals: []float64{8}},
		{Measure: dataset.Packets, Bin: 43, ODs: []int{7}, Residuals: []float64{9}},
	}
	if evs := Aggregate(dets); len(evs) != 2 {
		t.Fatalf("events=%d, want 2 (gap must split)", len(evs))
	}
}

func TestAggregateNoMergeDisjointODs(t *testing.T) {
	// Adjacent bins, same measure set, but disjoint OD sets: distinct
	// anomalies that happen to abut.
	dets := []Detection{
		{Measure: dataset.Flows, Bin: 50, ODs: []int{1}, Residuals: []float64{5}},
		{Measure: dataset.Flows, Bin: 51, ODs: []int{2}, Residuals: []float64{5}},
	}
	if evs := Aggregate(dets); len(evs) != 2 {
		t.Fatalf("events=%d, want 2", len(evs))
	}
}

func TestAggregateNoMergeDifferentSets(t *testing.T) {
	// Adjacent bins with different measure sets stay separate (the paper
	// groups in time only within the same traffic type).
	dets := []Detection{
		{Measure: dataset.Flows, Bin: 60, ODs: []int{4}, Residuals: []float64{5}},
		{Measure: dataset.Flows, Bin: 61, ODs: []int{4}, Residuals: []float64{5}},
		{Measure: dataset.Packets, Bin: 61, ODs: []int{4}, Residuals: []float64{5}},
	}
	evs := Aggregate(dets)
	// bin 60: F; bin 61: FP (measures merged at the cell level) — the F
	// event cannot absorb the FP bin.
	if len(evs) != 2 {
		t.Fatalf("events=%v", evs)
	}
}

func TestSpikeDipCounting(t *testing.T) {
	e := Event{ODResidual: map[int]float64{1: 10, 2: -5, 3: 4}}
	if e.NumSpikes() != 2 || e.NumDips() != 1 {
		t.Fatalf("spikes=%d dips=%d", e.NumSpikes(), e.NumDips())
	}
}

func TestCountBySet(t *testing.T) {
	evs := []Event{
		{Measures: SetB}, {Measures: SetB}, {Measures: SetF | SetP},
	}
	c := CountBySet(evs)
	if c[SetB] != 2 || c[SetF|SetP] != 1 {
		t.Fatalf("counts %v", c)
	}
}

func TestAggregateEmpty(t *testing.T) {
	if evs := Aggregate(nil); len(evs) != 0 {
		t.Fatalf("empty input gave %v", evs)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Measures: SetB | SetP, StartBin: 3, EndBin: 5, ODs: []int{1, 2}}
	if e.String() != "[BP] bins 3-5, 2 OD flows" {
		t.Fatalf("String=%q", e.String())
	}
}

// randomDetections builds a reproducible detection stream with temporal
// runs, composite measure sets, gaps and overlapping OD sets — the shapes
// the aggregation steps have to disambiguate.
func randomDetections(seed uint64, bins int) []Detection {
	rng := rand.New(rand.NewPCG(seed, seed^0x9E3779B9))
	var dets []Detection
	for bin := 0; bin < bins; bin++ {
		if rng.Float64() < 0.55 {
			continue // clean bin
		}
		for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
			if rng.Float64() < 0.4 {
				continue
			}
			n := 1 + rng.IntN(3)
			ods := make([]int, 0, n)
			res := make([]float64, 0, n)
			base := rng.IntN(6)
			for i := 0; i < n; i++ {
				ods = append(ods, base+i*rng.IntN(3))
				res = append(res, float64(rng.IntN(200)-80))
			}
			dets = append(dets, Detection{Measure: m, Bin: bin, ODs: ods, Residuals: res})
		}
	}
	return dets
}

func eventKey(e Event) string {
	return fmt.Sprintf("%v|%d-%d|%v", e.Measures, e.StartBin, e.EndBin, e.ODs)
}

// TestAggregatorMatchesAggregate drives random detection streams through
// the incremental Aggregator bin by bin (clean bins included, as a
// streaming verdict feed delivers them) and requires the exact event set
// of the batch Aggregate.
func TestAggregatorMatchesAggregate(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		const bins = 120
		dets := randomDetections(seed, bins)
		want := Aggregate(dets)

		byBin := map[int][]Detection{}
		for _, d := range dets {
			byBin[d.Bin] = append(byBin[d.Bin], d)
		}
		agg := NewAggregator()
		var got []Event
		for bin := 0; bin < bins; bin++ {
			got = append(got, agg.Add(bin, byBin[bin])...)
		}
		got = append(got, agg.Flush()...)

		if len(got) != len(want) {
			t.Fatalf("seed %d: incremental %d events, batch %d", seed, len(got), len(want))
		}
		sort.Slice(got, func(i, j int) bool {
			if got[i].StartBin != got[j].StartBin {
				return got[i].StartBin < got[j].StartBin
			}
			return got[i].Measures < got[j].Measures
		})
		for i := range want {
			if eventKey(got[i]) != eventKey(want[i]) {
				t.Fatalf("seed %d event %d:\n incremental %s\n batch       %s", seed, i, eventKey(got[i]), eventKey(want[i]))
			}
			for od, r := range want[i].ODResidual {
				if got[i].ODResidual[od] != r {
					t.Fatalf("seed %d event %d od %d: residual %v vs %v", seed, i, od, got[i].ODResidual[od], r)
				}
			}
		}
	}
}

// refAggregate is Aggregate's whole-run body from before Aggregate became a
// driver over the Aggregator, kept as the oracle: cells keyed by (bin, od),
// grouped by (bin, measure set), merged in time over the (bin, set)-sorted
// groups.
func refAggregate(dets []Detection) []Event {
	// Step 1+2: measure set and residuals per (bin, od).
	type cell struct {
		set MeasureSet
		res float64
	}
	cells := map[[2]int]*cell{}
	for _, d := range dets {
		for i, od := range d.ODs {
			key := [2]int{d.Bin, od}
			c := cells[key]
			if c == nil {
				c = &cell{}
				cells[key] = c
			}
			c.set = c.set.With(d.Measure)
			if i < len(d.Residuals) {
				c.res += d.Residuals[i]
			}
		}
	}

	// Step 3 (space): group cells by (bin, measure set).
	type groupKey struct {
		bin int
		set MeasureSet
	}
	groups := map[groupKey]*Event{}
	for key, c := range cells {
		gk := groupKey{bin: key[0], set: c.set}
		ev := groups[gk]
		if ev == nil {
			ev = &Event{Measures: c.set, StartBin: key[0], EndBin: key[0], ODResidual: map[int]float64{}}
			groups[gk] = ev
		}
		ev.ODResidual[key[1]] += c.res
	}
	// Order groups by (bin, set) for deterministic temporal merging.
	keys := make([]groupKey, 0, len(groups))
	for gk := range groups {
		keys = append(keys, gk)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].bin != keys[j].bin {
			return keys[i].bin < keys[j].bin
		}
		return keys[i].set < keys[j].set
	})

	// Step 4 (time): merge a group into the latest open event with the
	// same measure set, adjacent bins and overlapping ODs.
	var out []*Event
	open := map[MeasureSet][]*Event{} // events whose EndBin might still extend
	for _, gk := range keys {
		g := groups[gk]
		merged := false
		for _, ev := range open[gk.set] {
			if gk.bin == ev.EndBin+1 && overlaps(ev.ODResidual, g.ODResidual) {
				ev.EndBin = gk.bin
				for od, r := range g.ODResidual {
					ev.ODResidual[od] += r
				}
				merged = true
				break
			}
		}
		if !merged {
			out = append(out, g)
			open[gk.set] = append(open[gk.set], g)
		}
		// Drop events that can no longer extend.
		live := open[gk.set][:0]
		for _, ev := range open[gk.set] {
			if ev.EndBin >= gk.bin-1 {
				live = append(live, ev)
			}
		}
		open[gk.set] = live
	}

	return finalize(out)
}

// sameEvents fails the test unless got and want hold the same events in the
// same order, residuals compared bit for bit.
func sameEvents(t *testing.T, what string, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if eventKey(got[i]) != eventKey(want[i]) || len(got[i].ODResidual) != len(want[i].ODResidual) {
			t.Fatalf("%s event %d:\n got       %s\n reference %s", what, i, eventKey(got[i]), eventKey(want[i]))
		}
		for od, r := range want[i].ODResidual {
			if math.Float64bits(got[i].ODResidual[od]) != math.Float64bits(r) {
				t.Fatalf("%s event %d od %d: residual %v vs %v", what, i, od, got[i].ODResidual[od], r)
			}
		}
	}
}

// TestAggregateMatchesReference: on random multi-measure detection streams,
// fed in bin order and shuffled across bins, Aggregate returns exactly
// refAggregate's events.
func TestAggregateMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		dets := randomDetections(seed, 200)
		want := refAggregate(dets)
		sameEvents(t, fmt.Sprintf("seed %d", seed), Aggregate(dets), want)
		// Aggregate takes detections in any bin order; within a bin the
		// input order is the residual summation order, as in the reference.
		shuffled := append([]Detection(nil), dets...)
		rng := rand.New(rand.NewPCG(seed, 7))
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		sameEvents(t, fmt.Sprintf("seed %d shuffled", seed), Aggregate(shuffled), refAggregate(shuffled))
	}
}

// TestAggregatorClosesOnlyWhenUnextendable pins the close timing: an event
// ending at bin e must close exactly when bin e+2 is observed (e+1 could
// still have merged), and Flush closes the rest.
func TestAggregatorClosesOnlyWhenUnextendable(t *testing.T) {
	agg := NewAggregator()
	d := []Detection{{Measure: dataset.Bytes, Bin: 4, ODs: []int{1}, Residuals: []float64{10}}}
	if closed := agg.Add(4, d); len(closed) != 0 {
		t.Fatalf("event closed at its own bin: %v", closed)
	}
	if closed := agg.Add(5, nil); len(closed) != 0 {
		t.Fatalf("event closed while still extendable: %v", closed)
	}
	closed := agg.Add(6, nil)
	if len(closed) != 1 || closed[0].StartBin != 4 || closed[0].EndBin != 4 {
		t.Fatalf("close at first unextendable bin: %v", closed)
	}
	agg.Add(9, []Detection{{Measure: dataset.Flows, Bin: 9, ODs: []int{2}, Residuals: []float64{-3}}})
	if fl := agg.Flush(); len(fl) != 1 || fl[0].Measures != SetF {
		t.Fatalf("flush: %v", fl)
	}
	if fl := agg.Flush(); len(fl) != 0 {
		t.Fatalf("second flush not empty: %v", fl)
	}
}

// TestAggregatorAccumulatesSameBin: detections of one bin split across
// several Add calls must aggregate exactly as one call would — cell-level
// measure merging happens when the bin completes, not per call.
func TestAggregatorAccumulatesSameBin(t *testing.T) {
	dets := []Detection{
		{Measure: dataset.Bytes, Bin: 10, ODs: []int{5}, Residuals: []float64{100}},
		{Measure: dataset.Packets, Bin: 10, ODs: []int{5}, Residuals: []float64{50}},
	}
	want := Aggregate(dets)

	agg := NewAggregator()
	if closed := agg.Add(10, dets[:1]); len(closed) != 0 {
		t.Fatalf("premature close: %v", closed)
	}
	if closed := agg.Add(10, dets[1:]); len(closed) != 0 {
		t.Fatalf("same-bin Add closed events: %v", closed)
	}
	got := agg.Flush()
	if len(got) != 1 || len(want) != 1 {
		t.Fatalf("got %d events, want 1 (batch %d)", len(got), len(want))
	}
	if eventKey(got[0]) != eventKey(want[0]) {
		t.Fatalf("split-bin event %s, batch %s", eventKey(got[0]), eventKey(want[0]))
	}
	if got[0].Measures.String() != "BP" || got[0].ODResidual[5] != 150 {
		t.Fatalf("cells not merged across Adds: %+v", got[0])
	}

	// Decreasing bins are a programming error.
	agg2 := NewAggregator()
	agg2.Add(7, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("decreasing bin did not panic")
		}
	}()
	agg2.Add(6, nil)
}
