package events

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
)

// TestAggregatorStateRoundTrip pins the restore contract: an aggregator
// snapshotted at any bin and rebuilt from the (gob round-tripped) state
// must emit exactly the events the uninterrupted aggregator emits for the
// rest of the stream — the property the daemon checkpoint relies on.
func TestAggregatorStateRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		const bins = 120
		dets := randomDetections(seed, bins)
		byBin := map[int][]Detection{}
		for _, d := range dets {
			byBin[d.Bin] = append(byBin[d.Bin], d)
		}
		for _, cut := range []int{0, 1, 37, 63, bins - 1} {
			cont := NewAggregator()
			var wantTail []Event
			for bin := 0; bin < bins; bin++ {
				closed := cont.Add(bin, byBin[bin])
				if bin >= cut {
					wantTail = append(wantTail, closed...)
				}
			}
			wantTail = append(wantTail, cont.Flush()...)

			split := NewAggregator()
			for bin := 0; bin < cut; bin++ {
				split.Add(bin, byBin[bin])
			}
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(split.State()); err != nil {
				t.Fatal(err)
			}
			var st AggregatorState
			if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreAggregator(st)
			if err != nil {
				t.Fatalf("seed %d cut %d: restore: %v", seed, cut, err)
			}
			var gotTail []Event
			for bin := cut; bin < bins; bin++ {
				gotTail = append(gotTail, restored.Add(bin, byBin[bin])...)
			}
			gotTail = append(gotTail, restored.Flush()...)

			if len(gotTail) != len(wantTail) {
				t.Fatalf("seed %d cut %d: restored tail %d events, continuous %d", seed, cut, len(gotTail), len(wantTail))
			}
			sortEvents(gotTail)
			sortEvents(wantTail)
			for i := range wantTail {
				if eventKey(gotTail[i]) != eventKey(wantTail[i]) {
					t.Fatalf("seed %d cut %d event %d:\n restored   %s\n continuous %s", seed, cut, i, eventKey(gotTail[i]), eventKey(wantTail[i]))
				}
				for od, r := range wantTail[i].ODResidual {
					if gotTail[i].ODResidual[od] != r {
						t.Fatalf("seed %d cut %d event %d od %d: residual %v vs %v", seed, cut, i, od, gotTail[i].ODResidual[od], r)
					}
				}
			}
		}
	}
}

// TestAggregatorStateIsolation: mutating a snapshot (or the source
// aggregator after snapshotting) must not leak through shared slices/maps.
func TestAggregatorStateIsolation(t *testing.T) {
	agg := NewAggregator()
	agg.Add(0, []Detection{{Measure: 0, Bin: 0, ODs: []int{3, 4}, Residuals: []float64{10, -5}}})
	agg.Add(1, []Detection{{Measure: 1, Bin: 1, ODs: []int{3}, Residuals: []float64{7}}})
	st := agg.State()

	// Feeding the source further must not change the captured state.
	agg.Add(2, []Detection{{Measure: 0, Bin: 2, ODs: []int{3}, Residuals: []float64{1}}})
	if st.CurBin != 1 || len(st.CurDets) != 1 {
		t.Fatalf("snapshot mutated by later Add: %+v", st)
	}

	// Corrupting the snapshot must not reach a restored aggregator.
	restored, err := RestoreAggregator(st)
	if err != nil {
		t.Fatal(err)
	}
	for od := range st.Open[0].ODResidual {
		st.Open[0].ODResidual[od] = math.NaN()
	}
	st.CurDets[0].ODs[0] = -99

	got := append(restored.Add(3, nil), restored.Flush()...)
	for _, ev := range got {
		for od, r := range ev.ODResidual {
			if od < 0 || math.IsNaN(r) {
				t.Fatalf("snapshot corruption leaked into restored aggregator: %+v", ev)
			}
		}
	}
}

// TestRestoreAggregatorRejectsCorruptState: every malformed snapshot is an
// error, never a panic or a silently wrong aggregator.
func TestRestoreAggregatorRejectsCorruptState(t *testing.T) {
	good := func() AggregatorState {
		agg := NewAggregator()
		agg.Add(5, []Detection{{Measure: 0, Bin: 5, ODs: []int{1, 2}, Residuals: []float64{3, 4}}})
		agg.Add(6, []Detection{{Measure: 2, Bin: 6, ODs: []int{9}, Residuals: []float64{-2}}})
		return agg.State()
	}
	cases := []struct {
		name string
		mut  func(st *AggregatorState)
	}{
		{"unstarted with open events", func(st *AggregatorState) { st.Started = false }},
		{"inverted event interval", func(st *AggregatorState) { st.Open[0].StartBin = st.Open[0].EndBin + 1 }},
		{"event not before buffered bin", func(st *AggregatorState) { st.Open[0].EndBin = st.CurBin }},
		{"event without residuals", func(st *AggregatorState) { st.Open[0].ODResidual = nil }},
		{"negative OD in event", func(st *AggregatorState) {
			st.Open[0].ODResidual = map[int]float64{-1: 2}
		}},
		{"NaN residual", func(st *AggregatorState) {
			for od := range st.Open[0].ODResidual {
				st.Open[0].ODResidual[od] = math.NaN()
			}
		}},
		{"buffered detection bad measure", func(st *AggregatorState) { st.CurDets[0].Measure = 17 }},
		{"buffered detection negative OD", func(st *AggregatorState) { st.CurDets[0].ODs[0] = -3 }},
	}
	for _, tc := range cases {
		st := good()
		tc.mut(&st)
		if _, err := RestoreAggregator(st); err == nil {
			t.Errorf("%s: corrupt state restored silently", tc.name)
		}
	}
	if _, err := RestoreAggregator(good()); err != nil {
		t.Fatalf("pristine state rejected: %v", err)
	}
}
