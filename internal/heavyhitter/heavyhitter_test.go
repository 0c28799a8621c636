package heavyhitter

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestExactBelowCapacity(t *testing.T) {
	s := New(8)
	s.Add(1, 10)
	s.Add(2, 5)
	s.Add(1, 10)
	if s.Total() != 25 {
		t.Fatalf("total=%v", s.Total())
	}
	top := s.Top(2)
	if len(top) != 2 || top[0].Key != 1 || top[0].Count != 20 || top[0].Err != 0 {
		t.Fatalf("top=%v", top)
	}
}

func TestZeroWeightIgnored(t *testing.T) {
	s := New(2)
	s.Add(1, 0)
	s.Add(1, -3)
	if s.Total() != 0 || s.Len() != 0 {
		t.Fatal("zero/negative weights were recorded")
	}
}

func TestEvictionKeepsHeavyKey(t *testing.T) {
	s := New(4)
	// One heavy key among many light ones.
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 5000; i++ {
		s.Add(42, 10)
		s.Add(uint64(100+rng.IntN(500)), 1)
	}
	top := s.Top(1)
	if top[0].Key != 42 {
		t.Fatalf("heavy key lost, top=%v", top)
	}
	// 42's true weight is 50000; its guaranteed share must clear the
	// paper's dominance threshold.
	if it, ok := s.Max(); !ok || it.Key != 42 || !(it.GuaranteedFraction(s.Total()) > 0.2) {
		t.Fatalf("dominant key not detected: Max() = %+v, %v", it, ok)
	}
}

func TestDominantNegative(t *testing.T) {
	s := New(16)
	for k := uint64(0); k < 16; k++ {
		s.Add(k, 1)
	}
	if it, _ := s.Max(); it.GuaranteedFraction(s.Total()) > 0.2 {
		t.Fatalf("uniform stream reported a dominant key: %+v", it)
	}
	// Empty sketch.
	if it, ok := New(4).Max(); ok || it != (Item{}) {
		t.Fatalf("empty sketch reported a maximum: %+v, %v", it, ok)
	}
}

func TestTopOrderingDeterministic(t *testing.T) {
	s := New(8)
	s.Add(5, 3)
	s.Add(9, 3)
	s.Add(1, 3)
	top := s.Top(3)
	if top[0].Key != 1 || top[1].Key != 5 || top[2].Key != 9 {
		t.Fatalf("tie order not by key: %v", top)
	}
}

func TestMerge(t *testing.T) {
	a := New(8)
	b := New(8)
	a.Add(1, 10)
	a.Add(2, 4)
	b.Add(1, 7)
	b.Add(3, 2)
	a.Merge(b)
	if a.Total() != 23 {
		t.Fatalf("merged total %v", a.Total())
	}
	top := a.Top(1)
	if top[0].Key != 1 || top[0].Count != 17 {
		t.Fatalf("merged top %v", top)
	}
}

func TestMergeOverCapacity(t *testing.T) {
	a := New(2)
	b := New(2)
	a.Add(1, 100)
	a.Add(2, 50)
	b.Add(3, 200)
	b.Add(4, 1)
	a.Merge(b)
	if a.Len() > 2 {
		t.Fatalf("capacity exceeded: %d", a.Len())
	}
	if a.Total() != 351 {
		t.Fatalf("total %v", a.Total())
	}
	top := a.Top(2)
	if top[0].Key != 3 {
		t.Fatalf("heavy key lost in merge: %v", top)
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 accepted")
		}
	}()
	New(0)
}

// Property: Space-Saving error bound — for any stream, the estimate of any
// reported key overestimates its true count by at most Total/capacity.
func TestPropErrorBound(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed*7+3))
		cap := 4 + rng.IntN(12)
		s := New(cap)
		truth := map[uint64]float64{}
		n := 50 + rng.IntN(500)
		for i := 0; i < n; i++ {
			k := uint64(rng.IntN(50))
			w := float64(1 + rng.IntN(9))
			truth[k] += w
			s.Add(k, w)
		}
		bound := s.Total() / float64(cap)
		for _, it := range s.Top(cap) {
			if it.Count-truth[it.Key] > bound+1e-9 {
				return false
			}
			if it.Count < truth[it.Key]-1e-9 { // never underestimates
				return false
			}
			if it.Err > bound+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: any key with true share > total/capacity is present in the
// sketch (the Space-Saving guarantee that no heavy hitter is lost).
func TestPropHeavyHitterRetained(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed^0xbeef, seed))
		cap := 8
		s := New(cap)
		truth := map[uint64]float64{}
		for i := 0; i < 400; i++ {
			var k uint64
			if rng.Float64() < 0.4 {
				k = 7 // heavy key
			} else {
				k = uint64(10 + rng.IntN(200))
			}
			truth[k]++
			s.Add(k, 1)
		}
		threshold := s.Total() / float64(cap)
		reported := map[uint64]bool{}
		for _, it := range s.Top(cap) {
			reported[it.Key] = true
		}
		for k, c := range truth {
			if c > threshold && !reported[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// refSketch is the map-based Space-Saving sketch the flat one replaced,
// kept verbatim as the reference: eviction takes the (count, then smallest
// key) minimum, Merge folds in ascending key order. The flat sketch must
// hold exactly the same counters after any sequence of operations, because
// every classification downstream is a function of them.
type refSketch struct {
	capacity int
	counts   map[uint64]*entry
	total    float64
}

func newRef(capacity int) *refSketch {
	return &refSketch{capacity: capacity, counts: make(map[uint64]*entry, capacity)}
}

func (s *refSketch) add(key uint64, w float64) {
	if w <= 0 {
		return
	}
	s.total += w
	if e, ok := s.counts[key]; ok {
		e.count += w
		return
	}
	if len(s.counts) < s.capacity {
		s.counts[key] = &entry{key: key, count: w}
		return
	}
	min := s.minEntry()
	delete(s.counts, min.key)
	s.counts[key] = &entry{key: key, count: min.count + w, errOff: min.count}
}

func (s *refSketch) minEntry() *entry {
	var min *entry
	for _, e := range s.counts {
		if min == nil || e.count < min.count || (e.count == min.count && e.key < min.key) {
			min = e
		}
	}
	return min
}

func (s *refSketch) merge(other *refSketch) {
	keys := make([]uint64, 0, len(other.counts))
	for k := range other.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		e := other.counts[k]
		if mine, ok := s.counts[e.key]; ok {
			mine.count += e.count
			mine.errOff += e.errOff
			continue
		}
		if len(s.counts) < s.capacity {
			s.counts[e.key] = &entry{key: e.key, count: e.count, errOff: e.errOff}
			continue
		}
		min := s.minEntry()
		if e.count <= min.count {
			continue
		}
		delete(s.counts, min.key)
		s.counts[e.key] = &entry{key: e.key, count: min.count + e.count, errOff: min.count + e.errOff}
	}
	s.total += other.total
}

func (s *refSketch) top() []Item {
	items := make([]Item, 0, len(s.counts))
	for _, e := range s.counts {
		items = append(items, Item{Key: e.key, Count: e.count, Err: e.errOff})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].Count != items[j].Count {
			return items[i].Count > items[j].Count
		}
		return items[i].Key < items[j].Key
	})
	return items
}

// sameAsRef compares everything a caller can read off a sketch, exactly:
// the counters are sums of the same small integers in the same order, so
// there is no tolerance to grant.
func sameAsRef(t *testing.T, what string, s *Sketch, ref *refSketch) {
	t.Helper()
	if s.Total() != ref.total {
		t.Fatalf("%s: total %v, reference %v", what, s.Total(), ref.total)
	}
	got, want := s.Top(ref.capacity), ref.top()
	if len(got) != len(want) {
		t.Fatalf("%s: %d counters, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: counter %d is %+v, reference %+v", what, i, got[i], want[i])
		}
	}
	if it, ok := s.Max(); ok != (len(want) > 0) || (ok && it != want[0]) {
		t.Fatalf("%s: Max() = %+v, %v; reference top %+v", what, it, ok, want)
	}
}

// TestFlatMatchesMapReference drives the flat sketch and the map-based
// reference with the same random weighted streams — few distinct weights so
// counts tie constantly and the (count, key) tie-break decides evictions,
// key ranges both below and far above the capacity, Merges of independently
// built sketches interleaved with the Adds — and demands identical
// contents after every step.
func TestFlatMatchesMapReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 32} {
		for seed := uint64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(capacity)))
			keys := 1 + rng.IntN(4*capacity+2)
			weights := 1 + rng.IntN(3)
			feed := func(s *Sketch, ref *refSketch, n int) {
				for i := 0; i < n; i++ {
					k, w := uint64(rng.IntN(keys)), float64(rng.IntN(weights+1)) // 0 = ignored
					s.Add(k, w)
					ref.add(k, w)
				}
			}
			s, ref := New(capacity), newRef(capacity)
			for step := 0; step < 30; step++ {
				what := fmt.Sprintf("cap %d seed %d step %d", capacity, seed, step)
				if rng.IntN(4) == 0 {
					o, oref := New(capacity), newRef(capacity)
					feed(o, oref, rng.IntN(6*capacity))
					s.Merge(o)
					ref.merge(oref)
					sameAsRef(t, what+" (merge operand)", o, oref) // Merge must not disturb its operand
				} else {
					feed(s, ref, 1+rng.IntN(3*capacity))
				}
				sameAsRef(t, what, s, ref)
			}
		}
	}
}

// TestAddDoesNotAllocate: the classifier calls Add twelve times per flow
// record, so once the sketch is full neither a hit nor an eviction may
// touch the heap.
func TestAddDoesNotAllocate(t *testing.T) {
	s := New(32)
	for k := uint64(0); k < 32; k++ {
		s.Add(k, 1)
	}
	k := uint64(0)
	if avg := testing.AllocsPerRun(1000, func() {
		s.Add(k%32, 1)   // hit
		s.Add(1000+k, 1) // miss: evicts the minimum
		k++
	}); avg != 0 {
		t.Fatalf("Add on a full sketch allocates %.1f/op, want 0", avg)
	}
}

// TestMergeAndMaxDoNotAllocate: an event's attribute summary merges twelve
// sketches per cell and tests dominance on each, so neither may touch the
// heap for sketches of the summaries' capacity.
func TestMergeAndMaxDoNotAllocate(t *testing.T) {
	a, b := New(32), New(32)
	for k := uint64(0); k < 32; k++ {
		a.Add(k, 1)
		b.Add(1000+k, 2)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		a.Merge(b)
		if _, ok := a.Max(); !ok {
			t.Fatal("full sketch has no maximum")
		}
	}); avg != 0 {
		t.Fatalf("Merge+Max on full sketches allocate %.1f/op, want 0", avg)
	}
}
