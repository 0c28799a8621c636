// Package events aggregates per-statistic detections into anomaly events,
// following Section 4 of the paper: detections are cast as triples of
// (traffic type, time, OD flow); triples sharing a time value merge across
// traffic types into the composite categories BP, BF, FP and BFP; triples
// are then grouped in space (all OD flows of the same type and time) and in
// time (consecutive time bins of the same type).
package events

import (
	"fmt"
	"math"
	"sort"

	"netwide/internal/dataset"
)

// MeasureSet is a bitmask of traffic types in which an anomaly was
// detected.
type MeasureSet uint8

// Set constructors for the three base types.
const (
	SetB MeasureSet = 1 << dataset.Bytes
	SetP MeasureSet = 1 << dataset.Packets
	SetF MeasureSet = 1 << dataset.Flows
)

// With returns the set extended by m.
func (s MeasureSet) With(m dataset.Measure) MeasureSet { return s | 1<<m }

// Has reports whether the set contains m.
func (s MeasureSet) Has(m dataset.Measure) bool { return s&(1<<m) != 0 }

// String renders the paper's composite labels: B, F, P, BF, BP, FP, BFP.
func (s MeasureSet) String() string {
	out := ""
	// Paper's letter order.
	if s.Has(dataset.Bytes) {
		out += "B"
	}
	if s.Has(dataset.Flows) {
		out += "F"
	}
	if s.Has(dataset.Packets) {
		out += "P"
	}
	if out == "" {
		return "-"
	}
	return out
}

// AllSets lists the seven non-empty combinations in the paper's Table 1
// column order.
func AllSets() []MeasureSet {
	return []MeasureSet{SetB, SetF, SetP, SetB | SetF, SetB | SetP, SetF | SetP, SetB | SetF | SetP}
}

// Detection is one identified alarm of one traffic type: the OD flows
// responsible for an alarmed bin, with their signed residuals.
type Detection struct {
	Measure   dataset.Measure
	Bin       int
	ODs       []int
	Residuals []float64
}

// Event is a fully aggregated anomaly.
type Event struct {
	Measures MeasureSet
	StartBin int
	EndBin   int
	// ODs is the union of identified OD-pair indexes, ascending.
	ODs []int
	// ODResidual sums the signed residual of each OD over the event; the
	// sign separates spikes from dips per flow (ingress shifts have both).
	ODResidual map[int]float64
}

// DurationBins returns the event length in bins.
func (e Event) DurationBins() int { return e.EndBin - e.StartBin + 1 }

// NumSpikes and NumDips count ODs by residual sign.
func (e Event) NumSpikes() int {
	n := 0
	for _, v := range e.ODResidual {
		if v > 0 {
			n++
		}
	}
	return n
}

// NumDips counts ODs whose summed residual is negative.
func (e Event) NumDips() int {
	n := 0
	for _, v := range e.ODResidual {
		if v < 0 {
			n++
		}
	}
	return n
}

// String renders a compact description.
func (e Event) String() string {
	return fmt.Sprintf("[%s] bins %d-%d, %d OD flows", e.Measures, e.StartBin, e.EndBin, len(e.ODs))
}

// Aggregate performs the paper's three aggregation steps over the
// detections of all three traffic types.
//
// Temporal merging requires consecutive bins with the same measure set and
// overlapping OD sets; the OD-overlap condition (implicit in the paper's
// "group triples to form anomalies") prevents unrelated same-type anomalies
// that happen to abut in time from fusing.
func Aggregate(dets []Detection) []Event {
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

// Aggregator is the incremental form of Aggregate for streaming
// detection: detections are fed one bin at a time (bins non-decreasing),
// and events are returned as soon as they can no longer extend — an event
// with EndBin e closes once a bin beyond e+1 has been observed, since
// temporal merging requires consecutive bins.
//
// Fed the same detections in bin order, Aggregator produces exactly the
// events of Aggregate (ordering aside: Aggregate sorts globally, the
// Aggregator emits in close order). The streaming characterization parity
// test pins this equivalence on a full scenario run.
type Aggregator struct {
	// open holds events that might still extend, in creation order (the
	// order Aggregate's merge loop scans, so merge ties resolve the same).
	open []*Event
	// curBin's detections are buffered in curDets until a later bin (or
	// Flush) proves the bin complete: cell-level measure-set merging needs
	// every detection of a bin together, so repeated Adds of one bin must
	// accumulate rather than open duplicate events.
	curBin  int
	curDets []Detection
	started bool
}

// NewAggregator returns an empty incremental aggregator.
func NewAggregator() *Aggregator { return &Aggregator{} }

// Add ingests detections of one bin and returns the events that closed,
// sorted by (StartBin, Measures). dets may be empty: clean bins still
// advance time and close stale events. Bins must be fed in non-decreasing
// order (Add panics on a decreasing bin); repeated Adds of the same bin
// accumulate into that bin, exactly as if their detections had arrived in
// one call. The aggregator retains dets until the bin completes.
func (a *Aggregator) Add(bin int, dets []Detection) []Event {
	if a.started && bin < a.curBin {
		panic(fmt.Sprintf("events: Aggregator.Add bin %d after bin %d", bin, a.curBin))
	}
	if a.started && bin == a.curBin {
		a.curDets = append(a.curDets, dets...)
		return nil
	}
	var closed []Event
	if a.started {
		a.ingest()
		closed = a.closeBefore(bin)
	}
	a.started = true
	a.curBin = bin
	a.curDets = append(a.curDets[:0], dets...)
	return closed
}

// Flush completes the buffered bin and closes every remaining open event —
// end of stream — returning them sorted by (StartBin, Measures).
func (a *Aggregator) Flush() []Event {
	if a.started {
		a.ingest()
		a.started = false
	}
	out := finalize(a.open)
	a.open = nil
	return out
}

// ingest runs the aggregation steps over the buffered bin's detections.
func (a *Aggregator) ingest() {
	bin, dets := a.curBin, a.curDets
	a.curDets = a.curDets[:0]
	if len(dets) == 0 {
		return
	}

	// Steps 1+2 of Aggregate, restricted to one bin: measure set and
	// summed residual per OD.
	type cell struct {
		set MeasureSet
		res float64
	}
	cells := map[int]*cell{}
	for _, d := range dets {
		for i, od := range d.ODs {
			c := cells[od]
			if c == nil {
				c = &cell{}
				cells[od] = c
			}
			c.set = c.set.With(d.Measure)
			if i < len(d.Residuals) {
				c.res += d.Residuals[i]
			}
		}
	}

	// Step 3 (space): group the bin's cells by measure set.
	groups := map[MeasureSet]map[int]float64{}
	for od, c := range cells {
		g := groups[c.set]
		if g == nil {
			g = map[int]float64{}
			groups[c.set] = g
		}
		g[od] += c.res
	}
	sets := make([]MeasureSet, 0, len(groups))
	for set := range groups {
		sets = append(sets, set)
	}
	sort.Slice(sets, func(i, j int) bool { return sets[i] < sets[j] })

	// Step 4 (time): merge each group into the first open event with the
	// same measure set, adjacent bins and overlapping ODs, else open a new
	// event — the same scan Aggregate runs over its (bin, set)-sorted
	// groups.
	for _, set := range sets {
		g := groups[set]
		merged := false
		for _, ev := range a.open {
			if ev.Measures == set && bin == ev.EndBin+1 && overlaps(ev.ODResidual, g) {
				ev.EndBin = bin
				for od, r := range g {
					ev.ODResidual[od] += r
				}
				merged = true
				break
			}
		}
		if !merged {
			odr := make(map[int]float64, len(g))
			for od, r := range g {
				odr[od] = r
			}
			a.open = append(a.open, &Event{Measures: set, StartBin: bin, EndBin: bin, ODResidual: odr})
		}
	}
}

// AggregatorState is the serializable snapshot of an Aggregator — the
// open (still extendable) events plus the buffered current bin. All fields
// are deep copies and plain data (internal/checkpoint's codec writes them
// field by field: a new field needs a line there), sized for a snapshot: open
// events are bounded by the active anomaly count, never by stream length.
type AggregatorState struct {
	// Open holds the still-extendable events in creation order (merge ties
	// resolve by scan order, so order is part of the state).
	Open    []Event
	CurBin  int
	CurDets []Detection
	Started bool
}

// State snapshots the aggregator. The caller must not be concurrently
// Adding (the streaming pipeline captures state at a barrier, with the
// detection feed quiesced).
func (a *Aggregator) State() AggregatorState {
	st := AggregatorState{
		Open:    make([]Event, len(a.open)),
		CurBin:  a.curBin,
		Started: a.started,
	}
	for i, ev := range a.open {
		st.Open[i] = copyEvent(*ev)
	}
	if len(a.curDets) > 0 {
		st.CurDets = make([]Detection, len(a.curDets))
		for i, d := range a.curDets {
			st.CurDets[i] = copyDetection(d)
		}
	}
	return st
}

// RestoreAggregator rebuilds an aggregator from a snapshot, validating the
// invariants Add relies on: open events are well-formed intervals strictly
// before the buffered bin, with at least one OD each. The input is deep
// copied; mutating st afterwards does not reach the aggregator.
func RestoreAggregator(st AggregatorState) (*Aggregator, error) {
	if !st.Started && (len(st.Open) > 0 || len(st.CurDets) > 0) {
		return nil, fmt.Errorf("events: restore of unstarted aggregator carries %d open events, %d buffered detections", len(st.Open), len(st.CurDets))
	}
	a := &Aggregator{curBin: st.CurBin, started: st.Started}
	for i, ev := range st.Open {
		if ev.StartBin > ev.EndBin {
			return nil, fmt.Errorf("events: restore open event %d has bins %d-%d", i, ev.StartBin, ev.EndBin)
		}
		if ev.EndBin >= st.CurBin {
			return nil, fmt.Errorf("events: restore open event %d ends at bin %d, at or past buffered bin %d", i, ev.EndBin, st.CurBin)
		}
		if len(ev.ODResidual) == 0 {
			return nil, fmt.Errorf("events: restore open event %d has no OD residuals", i)
		}
		for od, r := range ev.ODResidual {
			if od < 0 {
				return nil, fmt.Errorf("events: restore open event %d has negative OD index %d", i, od)
			}
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return nil, fmt.Errorf("events: restore open event %d has non-finite residual for OD %d", i, od)
			}
		}
		cp := copyEvent(ev)
		a.open = append(a.open, &cp)
	}
	for i, d := range st.CurDets {
		if d.Measure < 0 || d.Measure >= dataset.NumMeasures {
			return nil, fmt.Errorf("events: restore buffered detection %d has measure %d", i, d.Measure)
		}
		for _, od := range d.ODs {
			if od < 0 {
				return nil, fmt.Errorf("events: restore buffered detection %d has negative OD index %d", i, od)
			}
		}
		a.curDets = append(a.curDets, copyDetection(d))
	}
	return a, nil
}

func copyEvent(ev Event) Event {
	out := ev
	out.ODs = append([]int(nil), ev.ODs...)
	out.ODResidual = make(map[int]float64, len(ev.ODResidual))
	for od, r := range ev.ODResidual {
		out.ODResidual[od] = r
	}
	return out
}

func copyDetection(d Detection) Detection {
	out := d
	out.ODs = append([]int(nil), d.ODs...)
	out.Residuals = append([]float64(nil), d.Residuals...)
	return out
}

// closeBefore finalizes open events that can no longer extend at bin.
func (a *Aggregator) closeBefore(bin int) []Event {
	var done []*Event
	live := a.open[:0]
	for _, ev := range a.open {
		if ev.EndBin < bin-1 {
			done = append(done, ev)
		} else {
			live = append(live, ev)
		}
	}
	a.open = live
	return finalize(done)
}

// finalize fills the sorted OD list of each event and orders the batch by
// (StartBin, Measures), matching Aggregate's output order.
func finalize(evs []*Event) []Event {
	if len(evs) == 0 {
		return nil
	}
	out := make([]Event, len(evs))
	for i, ev := range evs {
		if ev.ODs == nil {
			for od := range ev.ODResidual {
				ev.ODs = append(ev.ODs, od)
			}
			sort.Ints(ev.ODs)
		}
		out[i] = *ev
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartBin != out[j].StartBin {
			return out[i].StartBin < out[j].StartBin
		}
		return out[i].Measures < out[j].Measures
	})
	return out
}

func overlaps(a, b map[int]float64) bool {
	for od := range b {
		if _, ok := a[od]; ok {
			return true
		}
	}
	return false
}

// CountBySet tallies events per measure set (the paper's Table 1).
func CountBySet(evs []Event) map[MeasureSet]int {
	out := map[MeasureSet]int{}
	for _, e := range evs {
		out[e.Measures]++
	}
	return out
}
