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
	"cmp"
	"fmt"
	"slices"
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
// threshold p is exact whenever k > 1/p with margin; the classifier's
// attribute summaries test p=0.2 on sketches of 32 counters.
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
// characterization paths) must agree exactly. It is looked for only when
// the key has no counter and none is free.
func (s *Sketch) fold(e entry, keepHeavier bool) {
	for i := range s.entries {
		if c := &s.entries[i]; c.key == e.key {
			c.count += e.count
			c.errOff += e.errOff
			return
		}
	}
	if len(s.entries) < cap(s.entries) {
		s.entries = append(s.entries, e)
		return
	}
	m := &s.entries[0]
	for i := 1; i < len(s.entries); i++ {
		if c := &s.entries[i]; c.count < m.count || (c.count == m.count && c.key < m.key) {
			m = c
		}
	}
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
	slices.SortFunc(items, func(a, b Item) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		return cmp.Compare(a.Key, b.Key)
	})
	if n < len(items) {
		items = items[:n]
	}
	return items
}

// Max returns the heaviest counter, the item Top(1) would hold (the
// largest estimated count, the smallest key among equals), without
// allocating; ok is false when the sketch is empty.
func (s *Sketch) Max() (it Item, ok bool) {
	if len(s.entries) == 0 {
		return Item{}, false
	}
	m := s.entries[0]
	for _, e := range s.entries[1:] {
		if e.count > m.count || (e.count == m.count && e.key < m.key) {
			m = e
		}
	}
	return Item{Key: m.key, Count: m.count, Err: m.errOff}, true
}

// Merge folds other into s (used when 1-minute sketches are combined into
// 5-minute bins). Merging keeps the error bounds conservative: counts and
// error offsets add.
func (s *Sketch) Merge(other *Sketch) {
	// Fold in ascending key order: with eviction deterministic (fold), the
	// merged sketch is a pure function of the two operands. The sorted copy
	// lives on the stack for any sketch up to the attribute summaries'
	// capacity.
	var buf [32]entry
	in := append(buf[:0], other.entries...)
	slices.SortFunc(in, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
	for _, e := range in {
		s.fold(e, true)
	}
	s.total += other.total
}

// Len returns the number of live counters.
func (s *Sketch) Len() int { return len(s.entries) }
