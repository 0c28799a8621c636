package routing

import (
	"fmt"
	"math/rand/v2"

	"netwide/internal/ipaddr"
	"netwide/internal/topology"
)

// Resolver maps the (source, destination) addresses of an IP flow to the
// Origin-Destination PoP pair carrying it, reproducing the aggregation
// procedure of Section 2.1 of the paper:
//
//   - Ingress PoP: from router configuration files — here, the customer
//     prefix table announced toward the backbone (a longest-prefix match on
//     the source address).
//   - Egress PoP: from BGP and IS-IS tables, augmented with configuration
//     files — a longest-prefix match on the (anonymized) destination
//     address.
//
// Like the paper's tables, a Resolver is a daily snapshot: routing changes
// (e.g. an ingress shift) only take effect when a new snapshot is built.
// The paper resolves ~93% of flows; UnresolvedFraction simulates the
// remainder, dropped uniformly at random.
type Resolver struct {
	ingress Trie[topology.PoP]
	egress  Trie[topology.PoP]
	// flat is the snapshot compiled for lookup once it is complete; every
	// Resolve goes through it, the tries stay as the record of what was
	// announced. One table serves both directions: BuildResolver, the only
	// writer, announces every prefix into both tries, and the table ignores
	// the bits anonymization zeroes, so a raw source and an anonymized
	// destination resolve alike (TestFlatMatchesTrie holds it to both tries).
	flat flatTable
	// UnresolvedFraction is the probability that a flow cannot be resolved
	// (missing config/BGP coverage) and is dropped from OD aggregation.
	UnresolvedFraction float64
}

// BuildResolver constructs the daily snapshot from the topology. The
// overrides map (customer name -> attachment PoP) models "downstream
// traffic engineering": a multihomed customer announcing its prefixes from
// a non-primary home, which is exactly the INGRESS-SHIFT anomaly of the
// paper. A nil map means every customer uses its primary home.
func BuildResolver(top *topology.Topology, overrides map[string]topology.PoP, unresolvedFraction float64) (*Resolver, error) {
	if unresolvedFraction < 0 || unresolvedFraction >= 1 {
		return nil, fmt.Errorf("routing: unresolved fraction %v out of [0,1)", unresolvedFraction)
	}
	r := &Resolver{UnresolvedFraction: unresolvedFraction}
	for i := range top.Customers {
		c := &top.Customers[i]
		home := c.Homes[0]
		if ov, ok := overrides[c.Name]; ok {
			valid := false
			for _, h := range c.Homes {
				if h == ov {
					valid = true
				}
			}
			if !valid {
				return nil, fmt.Errorf("routing: override for %s to %s, but customer is not homed there", c.Name, ov)
			}
			home = ov
		}
		for _, p := range c.Prefixes {
			// The paper notes that Abilene anonymizes the last 11 bits of
			// destination addresses, and that this is not a significant
			// concern because there are few prefixes longer than /21 in the
			// routing tables. Enforce that invariant here.
			if p.Bits > 32-ipaddr.AnonBits {
				return nil, fmt.Errorf("routing: prefix %s longer than /%d cannot be resolved under anonymization", p, 32-ipaddr.AnonBits)
			}
			r.ingress.Insert(p, home)
			r.egress.Insert(p, home)
		}
	}
	var err error
	if r.flat, err = compileFlat(&r.egress); err != nil {
		return nil, err
	}
	return r, nil
}

// ResolveSrc returns the ingress PoP for a flow source address.
func (r *Resolver) ResolveSrc(src ipaddr.Addr) (topology.PoP, bool) {
	return r.flat.lookup(src)
}

// ResolveDst returns the egress PoP for a flow destination address. The
// address is anonymized first — the resolver only ever sees what the
// measurement system would export.
func (r *Resolver) ResolveDst(dst ipaddr.Addr) (topology.PoP, bool) {
	return r.flat.lookup(dst.Anonymize())
}

// Resolve maps a (src, dst) address pair to its OD pair. The rng drives the
// simulated resolution failures; pass nil to disable them.
func (r *Resolver) Resolve(src, dst ipaddr.Addr, rng *rand.Rand) (topology.ODPair, bool) {
	if rng != nil && r.UnresolvedFraction > 0 && rng.Float64() < r.UnresolvedFraction {
		return topology.ODPair{}, false
	}
	in, ok := r.ResolveSrc(src)
	if !ok {
		return topology.ODPair{}, false
	}
	out, ok := r.ResolveDst(dst)
	if !ok {
		return topology.ODPair{}, false
	}
	return topology.ODPair{Origin: in, Dest: out}, true
}

// TableSize returns the number of prefixes in the (ingress, egress) tables.
func (r *Resolver) TableSize() (int, int) {
	return r.ingress.Len(), r.egress.Len()
}
