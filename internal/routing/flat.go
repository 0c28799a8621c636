package routing

import (
	"fmt"
	"slices"

	"netwide/internal/ipaddr"
	"netwide/internal/topology"
)

// flatTable is a prefix table compiled for lookup, DIR-12+9: l1 is indexed by
// an address's top 12 bits and holds either the answer or the number of a
// 512-entry block of l2, indexed by the next 9 bits. Two loads at most, where
// the trie it is compiled from chases a pointer per bit. It can be this
// shallow because BuildResolver refuses prefixes longer than /21
// (anonymization zeroes the bits behind them), so the last 11 bits of an
// address never decide a match. The split is 12+9 and not 16+5 because every
// daemon start builds a resolver: customers sit in a handful of /12s, so this
// table is 8 KB plus 1 KB per /12 in use (20 KB at abilene, 11 KB at a
// 200-PoP synthetic) and builds in microseconds, where a 128 KB first level
// added 50 µs of allocation to each table of every restore.
type flatTable struct {
	l1, l2 []uint16
}

// Entry encoding: 0 is "no prefix covers this", v+1 a PoP v, and an l1 entry
// with flatBlock set the number of an l2 block in its low bits.
const (
	flatBits    = 32 - ipaddr.AnonBits // the longest prefix a table resolves
	flatL1Bits  = 12
	flatL2Bits  = flatBits - flatL1Bits
	flatL2Block = 1 << flatL2Bits
	flatBlock   = 1 << 15
)

// compileFlat paints t's prefixes into a flat table. Walk visits a prefix
// before any longer prefix inside it, so painting in visiting order leaves
// every slot holding its longest match.
func compileFlat(t *Trie[topology.PoP]) (flatTable, error) {
	f := flatTable{l1: make([]uint16, 1<<flatL1Bits)}
	var err error
	t.Walk(func(p ipaddr.Prefix, v topology.PoP) {
		switch {
		case err != nil:
		case p.Bits > flatBits:
			err = fmt.Errorf("routing: prefix %s longer than /%d does not fit the lookup table", p, flatBits)
		case v < 0 || int(v)+1 >= flatBlock:
			err = fmt.Errorf("routing: PoP %d of prefix %s does not fit the lookup table", v, p)
		case p.Bits <= flatL1Bits:
			first := int(p.Addr >> (32 - flatL1Bits))
			for i := first; i < first+1<<(flatL1Bits-p.Bits); i++ {
				f.l1[i] = uint16(v) + 1
			}
		default:
			e := &f.l1[p.Addr>>(32-flatL1Bits)]
			if *e&flatBlock == 0 {
				// A new block starts out as the shorter match it refines.
				n := len(f.l2)
				f.l2 = slices.Grow(f.l2, flatL2Block)[:n+flatL2Block]
				for i := n; i < len(f.l2); i++ {
					f.l2[i] = *e
				}
				*e = flatBlock | uint16(n/flatL2Block)
			}
			block := f.l2[int(*e&^flatBlock)*flatL2Block:][:flatL2Block]
			first := int(p.Addr>>ipaddr.AnonBits) & (flatL2Block - 1)
			for i := first; i < first+1<<(flatBits-p.Bits); i++ {
				block[i] = uint16(v) + 1
			}
		}
	})
	return f, err
}

// lookup returns the PoP of the longest prefix containing a, and whether any
// prefix matched.
func (f *flatTable) lookup(a ipaddr.Addr) (topology.PoP, bool) {
	e := f.l1[a>>(32-flatL1Bits)]
	if e&flatBlock != 0 {
		e = f.l2[int(e&^flatBlock)*flatL2Block+int(a>>ipaddr.AnonBits)&(flatL2Block-1)]
	}
	return topology.PoP(e) - 1, e != 0
}
