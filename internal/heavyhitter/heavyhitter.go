// Package heavyhitter implements the Space-Saving algorithm (Metwally,
// Agrawal, El Abbadi 2005) for weighted top-k tracking over attribute
// streams.
//
// The anomaly classifier needs, for every (OD pair, timebin), the dominant
// source/destination addresses and ports by bytes, packets and flows. The
// full attribute distribution is far too large to retain, but dominance at
// threshold p = 0.2 (the paper's heuristic) only requires a sketch whose
// error is bounded well below p — Space-Saving with k counters guarantees
// per-item error at most total/k.
package heavyhitter

import (
	"fmt"
	"sort"
)

// Sketch tracks approximate weighted counts for the heaviest keys of a
// stream. The zero value is unusable; construct with New.
//
// The counters live in one flat slice whose capacity is the sketch's: the
// classifier feeds twelve sketches per flow record, so Add must neither
// allocate nor walk a map. At a few dozen counters a linear scan is the
// fastest lookup there is.
type Sketch struct {
	entries []entry // live counters, in no particular order
	total   float64
}

type entry struct {
	key    uint64
	count  float64 // estimated weight (upper bound)
	errOff float64 // maximum overestimation
}

// New returns a sketch with the given counter capacity. A capacity of k
// bounds the estimation error by Total()/k, so testing dominance at
// threshold p is exact whenever k > 1/p with margin; the classifier uses
// p=0.2 and k=16 by default.
func New(capacity int) *Sketch {
	if capacity <= 0 {
		panic(fmt.Sprintf("heavyhitter: capacity %d must be positive", capacity))
	}
	return &Sketch{entries: make([]entry, 0, capacity)}
}

// Add records weight w for key. Zero or negative weights are ignored.
func (s *Sketch) Add(key uint64, w float64) {
	if w <= 0 {
		return
	}
	s.total += w
	s.fold(entry{key: key, count: w}, false)
}

// fold adds e's count and error to key's counter, taking a free counter or
// evicting the minimum when key has none. The evicted minimum's count
// becomes the newcomer's error bound. Merge sets keepHeavier: a folded
// counter no heavier than the minimum is dropped instead (its mass still
// counts toward the total, and every surviving minimum absorbs the
// uncertainty).
//
// The minimum is taken by (count, then smallest key), so eviction — and
// through it the sketch contents — is deterministic: two independent
// summarizations of the same stream (the batch and streaming
// characterization paths) must agree exactly.
func (s *Sketch) fold(e entry, keepHeavier bool) {
	min := -1
	for i := range s.entries {
		c := &s.entries[i]
		if c.key == e.key {
			c.count += e.count
			c.errOff += e.errOff
			return
		}
		if min < 0 || c.count < s.entries[min].count || (c.count == s.entries[min].count && c.key < s.entries[min].key) {
			min = i
		}
	}
	if len(s.entries) < cap(s.entries) {
		s.entries = append(s.entries, e)
		return
	}
	m := &s.entries[min]
	if keepHeavier && e.count <= m.count {
		return
	}
	*m = entry{key: e.key, count: m.count + e.count, errOff: m.count + e.errOff}
}

// Total returns the total weight added.
func (s *Sketch) Total() float64 { return s.total }

// Item is a reported heavy hitter.
type Item struct {
	Key uint64
	// Count is the estimated weight (an upper bound on the true weight).
	Count float64
	// Err is the maximum amount by which Count overestimates.
	Err float64
}

// Fraction returns the estimated share of the total stream weight.
func (it Item) Fraction(total float64) float64 {
	if total <= 0 {
		return 0
	}
	return it.Count / total
}

// GuaranteedFraction returns a lower bound on the item's true share.
func (it Item) GuaranteedFraction(total float64) float64 {
	if total <= 0 {
		return 0
	}
	return (it.Count - it.Err) / total
}

// Top returns up to n items sorted by descending estimated count, ties
// broken by key for determinism.
func (s *Sketch) Top(n int) []Item {
	items := make([]Item, 0, len(s.entries))
	for _, e := range s.entries {
		items = append(items, Item{Key: e.key, Count: e.count, Err: e.errOff})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].Count != items[j].Count {
			return items[i].Count > items[j].Count
		}
		return items[i].Key < items[j].Key
	})
	if n < len(items) {
		items = items[:n]
	}
	return items
}

// Dominant returns the key with the largest estimated count and whether its
// guaranteed share of the stream meets the threshold frac. This is the
// paper's dominance test ("an address range or port is dominant if it
// accounts for more than a fraction p of the total traffic in the
// timebin").
func (s *Sketch) Dominant(frac float64) (uint64, bool) {
	top := s.Top(1)
	if len(top) == 0 {
		return 0, false
	}
	return top[0].Key, top[0].GuaranteedFraction(s.total) >= frac
}

// Merge folds other into s (used when 1-minute sketches are combined into
// 5-minute bins). Merging keeps the error bounds conservative: counts and
// error offsets add.
func (s *Sketch) Merge(other *Sketch) {
	// Fold in ascending key order: with eviction deterministic (fold), the
	// merged sketch is a pure function of the two operands.
	in := append([]entry(nil), other.entries...)
	sort.Slice(in, func(i, j int) bool { return in[i].key < in[j].key })
	for _, e := range in {
		s.fold(e, true)
	}
	s.total += other.total
}

// Len returns the number of live counters.
func (s *Sketch) Len() int { return len(s.entries) }
