package routing

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netwide/internal/ipaddr"
	"netwide/internal/topology"
)

func TestTrieBasic(t *testing.T) {
	var tr Trie[string]
	tr.Insert(ipaddr.MustPrefix("10.0.0.0", 8), "eight")
	tr.Insert(ipaddr.MustPrefix("10.1.0.0", 16), "sixteen")
	if tr.Len() != 2 {
		t.Fatalf("len=%d", tr.Len())
	}
	if v, ok := tr.refLookup(ipaddr.FromOctets(10, 1, 2, 3)); !ok || v != "sixteen" {
		t.Fatalf("longest match failed: %v %v", v, ok)
	}
	if v, ok := tr.refLookup(ipaddr.FromOctets(10, 9, 2, 3)); !ok || v != "eight" {
		t.Fatalf("fallback match failed: %v %v", v, ok)
	}
	if _, ok := tr.refLookup(ipaddr.FromOctets(11, 0, 0, 1)); ok {
		t.Fatal("matched outside any prefix")
	}
}

func TestTrieDefaultRoute(t *testing.T) {
	var tr Trie[int]
	tr.Insert(ipaddr.Prefix{Addr: 0, Bits: 0}, 42)
	if v, ok := tr.refLookup(ipaddr.FromOctets(203, 0, 113, 9)); !ok || v != 42 {
		t.Fatal("default route not matched")
	}
}

func TestTrieReplace(t *testing.T) {
	var tr Trie[int]
	p := ipaddr.MustPrefix("192.168.0.0", 16)
	tr.Insert(p, 1)
	tr.Insert(p, 2)
	if tr.Len() != 1 {
		t.Fatalf("replace should not grow, len=%d", tr.Len())
	}
	if v, _ := tr.refLookup(ipaddr.FromOctets(192, 168, 1, 1)); v != 2 {
		t.Fatalf("replace failed: %d", v)
	}
}

func TestTrieWalk(t *testing.T) {
	var tr Trie[int]
	pfx := []ipaddr.Prefix{
		ipaddr.MustPrefix("10.0.0.0", 8),
		ipaddr.MustPrefix("10.64.0.0", 10),
		ipaddr.MustPrefix("172.16.0.0", 12),
	}
	for i, p := range pfx {
		tr.Insert(p, i)
	}
	var seen []ipaddr.Prefix
	tr.Walk(func(p ipaddr.Prefix, _ int) { seen = append(seen, p) })
	if len(seen) != 3 {
		t.Fatalf("walk saw %d entries", len(seen))
	}
	// Address order: 10/8 before 10.64/10 before 172.16/12.
	if seen[0] != pfx[0] || seen[1] != pfx[1] || seen[2] != pfx[2] {
		t.Fatalf("walk order %v", seen)
	}
}

// Property: after inserting disjoint /16s, lookup of any address inside a
// /16 returns its value and never another's.
func TestPropTrieDisjoint(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^1))
		var tr Trie[int]
		n := 1 + rng.IntN(40)
		used := map[uint16]int{}
		for i := 0; i < n; i++ {
			hi := uint16(rng.UintN(65536))
			used[hi] = i
			p, _ := ipaddr.NewPrefix(ipaddr.Addr(uint32(hi)<<16), 16)
			tr.Insert(p, i)
		}
		for hi, want := range used {
			a := ipaddr.Addr(uint32(hi)<<16 | rng.Uint32()&0xFFFF)
			got, ok := tr.refLookup(a)
			if !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSPFPathsValid(t *testing.T) {
	top := topology.Abilene()
	spf, err := ComputeSPF(top)
	if err != nil {
		t.Fatal(err)
	}
	adj := map[[2]topology.PoP]bool{}
	for _, l := range top.Links {
		adj[[2]topology.PoP{l.A, l.B}] = true
		adj[[2]topology.PoP{l.B, l.A}] = true
	}
	for a := topology.PoP(0); a < topology.NumPoPs; a++ {
		for b := topology.PoP(0); b < topology.NumPoPs; b++ {
			path := spf.Path(a, b)
			if path[0] != a || path[len(path)-1] != b {
				t.Fatalf("path %s->%s endpoints wrong: %v", a, b, path)
			}
			for i := 1; i < len(path); i++ {
				if !adj[[2]topology.PoP{path[i-1], path[i]}] {
					t.Fatalf("path %s->%s uses missing link %s-%s", a, b, path[i-1], path[i])
				}
			}
		}
	}
}

func TestSPFDistanceSymmetryAndTriangle(t *testing.T) {
	top := topology.Abilene()
	spf, err := ComputeSPF(top)
	if err != nil {
		t.Fatal(err)
	}
	for a := topology.PoP(0); a < topology.NumPoPs; a++ {
		if spf.Dist(a, a) != 0 {
			t.Fatalf("Dist(%s,%s) = %v", a, a, spf.Dist(a, a))
		}
		for b := topology.PoP(0); b < topology.NumPoPs; b++ {
			if d1, d2 := spf.Dist(a, b), spf.Dist(b, a); math.Abs(d1-d2) > 1e-9*(1+d1) {
				t.Fatalf("asymmetric distance %s<->%s: %v vs %v", a, b, d1, d2)
			}
			for c := topology.PoP(0); c < topology.NumPoPs; c++ {
				if spf.Dist(a, c) > spf.Dist(a, b)+spf.Dist(b, c)+1e-9 {
					t.Fatalf("triangle inequality violated %s-%s-%s", a, b, c)
				}
			}
		}
	}
}

func TestSPFKnownPath(t *testing.T) {
	top := topology.Abilene()
	spf, err := ComputeSPF(top)
	if err != nil {
		t.Fatal(err)
	}
	// Seattle to LA must go through Sunnyvale (the only sane coastal path).
	path := spf.Path(topology.STTL, topology.LOSA)
	if len(path) != 3 || path[1] != topology.SNVA {
		t.Fatalf("STTL->LOSA path %v, want via SNVA", path)
	}
}

func TestLinkLoads(t *testing.T) {
	top := topology.Abilene()
	spf, err := ComputeSPF(top)
	if err != nil {
		t.Fatal(err)
	}
	demand := make([]float64, topology.NumODPairs)
	od := topology.ODPair{Origin: topology.STTL, Dest: topology.LOSA}
	demand[od.Index()] = 100
	// Self traffic should not load the backbone.
	demand[topology.ODPair{Origin: topology.ATLA, Dest: topology.ATLA}.Index()] = 999
	loads, err := spf.LinkLoads(demand)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	loaded := 0
	for i, l := range loads {
		total += l
		if l > 0 {
			loaded++
			from, to := spf.DirectedLink(i)
			if l != 100 {
				t.Fatalf("link %s->%s load %v, want 100", from, to, l)
			}
		}
	}
	// Path STTL->SNVA->LOSA: exactly 2 directed links loaded.
	if loaded != 2 || total != 200 {
		t.Fatalf("loaded=%d total=%v, want 2 links x 100", loaded, total)
	}
	if _, err := spf.LinkLoads(make([]float64, 5)); err == nil {
		t.Fatal("short demand vector accepted")
	}
}

func TestResolverResolves(t *testing.T) {
	top := topology.Abilene()
	r, err := BuildResolver(top, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A LOSA customer source resolves to LOSA.
	losaCust := top.CustomersAt(topology.LOSA)[0]
	src := losaCust.Prefixes[0].Nth(77)
	pop, ok := r.ResolveSrc(src)
	if !ok || pop != topology.LOSA {
		t.Fatalf("ResolveSrc = %v %v", pop, ok)
	}
	// A NYCM customer destination resolves to NYCM even after
	// anonymization.
	nycmCust := top.CustomersAt(topology.NYCM)[0]
	dst := nycmCust.Prefixes[0].Nth(12345)
	pop, ok = r.ResolveDst(dst)
	if !ok || pop != topology.NYCM {
		t.Fatalf("ResolveDst = %v %v", pop, ok)
	}
	od, ok := r.Resolve(src, dst, nil)
	if !ok || od.Origin != topology.LOSA || od.Dest != topology.NYCM {
		t.Fatalf("Resolve = %v %v", od, ok)
	}
	// Unknown space resolves to nothing.
	if _, ok := r.Resolve(ipaddr.FromOctets(203, 0, 113, 5), dst, nil); ok {
		t.Fatal("resolved unknown source")
	}
}

func TestResolverIngressShift(t *testing.T) {
	top := topology.Abilene()
	base, err := BuildResolver(top, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := BuildResolver(top, map[string]topology.PoP{"CALREN": topology.SNVA}, 0)
	if err != nil {
		t.Fatal(err)
	}
	calren := top.CustomerByName("CALREN")
	src := calren.Prefixes[0].Nth(5)
	if pop, _ := base.ResolveSrc(src); pop != topology.LOSA {
		t.Fatalf("baseline CALREN ingress %v, want LOSA", pop)
	}
	if pop, _ := shifted.ResolveSrc(src); pop != topology.SNVA {
		t.Fatalf("shifted CALREN ingress %v, want SNVA", pop)
	}
	// Shifting to a PoP the customer is not homed at must fail.
	if _, err := BuildResolver(top, map[string]topology.PoP{"CALREN": topology.NYCM}, 0); err == nil {
		t.Fatal("invalid override accepted")
	}
	// Unknown override names are ignored (no such customer, no effect).
	if _, err := BuildResolver(top, map[string]topology.PoP{"GHOST": topology.NYCM}, 0); err != nil {
		t.Fatalf("override for absent customer should be a no-op, got %v", err)
	}
}

func TestResolverUnresolvedFraction(t *testing.T) {
	top := topology.Abilene()
	r, err := BuildResolver(top, nil, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	cust := top.CustomersAt(topology.ATLA)[0]
	src := cust.Prefixes[0].Nth(1)
	dst := top.CustomersAt(topology.CHIN)[0].Prefixes[0].Nth(2)
	const n = 20000
	resolved := 0
	for i := 0; i < n; i++ {
		if _, ok := r.Resolve(src, dst, rng); ok {
			resolved++
		}
	}
	frac := float64(resolved) / n
	if frac < 0.90 || frac > 0.96 {
		t.Fatalf("resolved fraction %v, want ~0.93", frac)
	}
	if _, err := BuildResolver(top, nil, 1.5); err == nil {
		t.Fatal("bad unresolved fraction accepted")
	}
}

func TestResolverTableSize(t *testing.T) {
	top := topology.Abilene()
	r, err := BuildResolver(top, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for _, c := range top.Customers {
		want += len(c.Prefixes)
	}
	if got := r.TableSize(); got != want {
		t.Fatalf("table size %d, want %d", got, want)
	}
}

// Property: after a random sequence of inserts and replacements, the trie's
// longest-prefix match agrees with a naive linear scan.
func TestPropTrieMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xCAFE))
		var tr Trie[int]
		type entry struct {
			p ipaddr.Prefix
			v int
		}
		var live []entry
		for op := 0; op < 60; op++ {
			bits := rng.IntN(25) // keep prefixes <= /24 so collisions occur
			p, _ := ipaddr.NewPrefix(ipaddr.Addr(rng.Uint32()), bits)
			v := rng.IntN(1000)
			tr.Insert(p, v)
			replaced := false
			for i := range live {
				if live[i].p == p {
					live[i].v, replaced = v, true
				}
			}
			if !replaced {
				live = append(live, entry{p, v})
			}
		}
		if tr.Len() != len(live) {
			return false
		}
		for probe := 0; probe < 40; probe++ {
			a := ipaddr.Addr(rng.Uint32())
			bestBits, bestVal, found := -1, 0, false
			for _, e := range live {
				if e.p.Contains(a) && e.p.Bits > bestBits {
					bestBits, bestVal, found = e.p.Bits, e.v, true
				}
			}
			got, ok := tr.refLookup(a)
			if ok != found || (found && got != bestVal) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
