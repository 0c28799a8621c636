package routing

import (
	"math/rand/v2"
	"testing"

	"netwide/internal/ipaddr"
	"netwide/internal/topology"
)

// TestFlatMatchesTrie: the compiled table answers exactly as the trie it was
// compiled from — on two million random addresses and on both edges of every
// prefix, one address outside each edge included, for the table of the two
// bundled topologies and a 50-PoP synthetic one.
func TestFlatMatchesTrie(t *testing.T) {
	syn, err := topology.Synthetic(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, top := range []*topology.Topology{topology.Abilene(), topology.Geant(), syn} {
		r, err := BuildResolver(top, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		check := func(a ipaddr.Addr) {
			t.Helper()
			want, wantOK := r.table.Lookup(a)
			got, gotOK := r.flat.lookup(a)
			if gotOK != wantOK || (wantOK && got != want) {
				t.Fatalf("%s %v: flat table says (%v, %v), trie says (%v, %v)", top.Name, a, got, gotOK, want, wantOK)
			}
		}
		rng := rand.New(rand.NewPCG(1, 2))
		for i := 0; i < 2_000_000; i++ {
			check(ipaddr.Addr(rng.Uint32()))
		}
		r.table.Walk(func(p ipaddr.Prefix, _ topology.PoP) {
			last := p.Addr | ipaddr.Addr(uint32(1)<<(32-p.Bits)-1)
			for _, a := range []ipaddr.Addr{p.Addr - 1, p.Addr, last, last + 1} {
				check(a)
			}
		})
	}
}

func TestFlatRefusesWhatItCannotHold(t *testing.T) {
	var tr Trie[topology.PoP]
	tr.Insert(ipaddr.MustPrefix("10.0.0.0", 24), 1)
	if _, err := compileFlat(&tr); err == nil {
		t.Fatal("a /24 compiled into a table that resolves 21 bits")
	}
}

func BenchmarkResolveDst(b *testing.B) {
	r, err := BuildResolver(topology.Geant(), nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	addrs := make([]ipaddr.Addr, 1<<16)
	for i := range addrs {
		addrs[i] = ipaddr.Addr(rng.Uint32())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ResolveDst(addrs[i&(len(addrs)-1)])
	}
}

func BenchmarkBuildResolver(b *testing.B) {
	top := topology.Geant()
	for i := 0; i < b.N; i++ {
		if _, err := BuildResolver(top, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}
