// Package traffic synthesizes the network's offered load: diurnal and
// weekly profiles, an application mix with heavy-tailed flow sizes, and the
// flow-class abstraction that both background traffic and anomaly injectors
// are expressed in.
//
// A FlowClass describes a homogeneous group of true IP flows ("Count flows
// of PktsPerFlow packets from sources matching Src to destinations matching
// Dst"). The measurement layer turns classes into sampled flow records
// without ever materializing the true flows, which keeps a 4-week network
// simulation tractable while remaining statistically faithful to 1%
// packet sampling.
package traffic

import (
	"fmt"
	"math/rand/v2"

	"netwide/internal/flow"
	"netwide/internal/ipaddr"
	"netwide/internal/topology"
)

// AddrMode selects how a flow endpoint address is drawn.
type AddrMode uint8

const (
	// AddrFixed always yields Template.Fixed.
	AddrFixed AddrMode = iota
	// AddrRandomAtPoP yields a random host of a random customer (weighted
	// by customer size) homed at Template.PoP.
	AddrRandomAtPoP
	// AddrHostSetAtPoP yields one of Template.Hosts deterministic hosts of
	// the largest customer at Template.PoP (a "topologically clustered"
	// population, as in flash crowds).
	AddrHostSetAtPoP
	// AddrRandomInPrefix yields a random host inside Template.Prefix.
	AddrRandomInPrefix
	// AddrSpoofed yields a uniformly random 32-bit address (DOS source
	// spoofing).
	AddrSpoofed
)

// AddrTemplate describes one endpoint's address population.
type AddrTemplate struct {
	Mode   AddrMode
	Fixed  ipaddr.Addr
	Prefix ipaddr.Prefix
	PoP    topology.PoP
	Hosts  uint64
}

// PortMode selects how a port is drawn.
type PortMode uint8

const (
	// PortFixed always yields Template.Port.
	PortFixed PortMode = iota
	// PortEphemeral yields a random port in [1024, 65535].
	PortEphemeral
	// PortRandom yields any port, 0 included (network scans).
	PortRandom
	// PortRange yields a random port in [Template.Lo, Template.Hi].
	PortRange
)

// PortTemplate describes a port population.
type PortTemplate struct {
	Mode   PortMode
	Port   uint16
	Lo, Hi uint16
}

// FlowClass is a homogeneous group of true IP flows within one (OD pair,
// timebin).
type FlowClass struct {
	// Count is the number of true flows in the group.
	Count uint64
	// PktsPerFlow is the true packet count of each flow.
	PktsPerFlow uint64
	// BytesPerPkt is the mean packet size in bytes.
	BytesPerPkt float64
	Proto       flow.Proto
	Src, Dst    AddrTemplate
	SrcPort     PortTemplate
	DstPort     PortTemplate
}

// Validate rejects classes the measurement layer cannot handle.
func (c FlowClass) Validate() error {
	if c.PktsPerFlow == 0 {
		return fmt.Errorf("traffic: class with zero packets per flow")
	}
	if c.BytesPerPkt < 20 {
		return fmt.Errorf("traffic: bytes per packet %v below IP header size", c.BytesPerPkt)
	}
	return nil
}

// TrueBytes returns the true byte volume of the class.
func (c FlowClass) TrueBytes() float64 {
	return float64(c.Count) * float64(c.PktsPerFlow) * c.BytesPerPkt
}

// Realm carries the address-space context needed to instantiate templates:
// for each PoP, the weighted customer prefixes homed there.
type Realm struct {
	spaces []weightedPrefixes
}

type weightedPrefixes struct {
	prefixes []ipaddr.Prefix
	cum      []float64 // cumulative weights for O(log n) sampling
	total    float64
	// guide cuts the uniform draw u's range [0, 1) into len(guide)-1
	// buckets, a power of two: guide[b] is the lower bound in cum of the x
	// that u = b/buckets yields (see index).
	guide []int32
}

// buildGuide fills the guide table from the finished cumulative weights:
// at least guideBucketsPerPrefix buckets a prefix, a power of two so that
// b/buckets and u·buckets are exact.
func (sp *weightedPrefixes) buildGuide() {
	const guideBucketsPerPrefix = 4
	buckets := 1
	for buckets < guideBucketsPerPrefix*len(sp.prefixes) {
		buckets *= 2
	}
	sp.guide = make([]int32, buckets+1)
	for b := range sp.guide {
		x := float64(b) / float64(buckets) * sp.total
		sp.guide[b] = int32(sp.lowerBound(x, 0, len(sp.cum)-1))
	}
}

// index returns the lower bound of x = u·total over the whole of cum — the
// smallest i with cum[i] >= x, or the last index if none — for a uniform
// draw u in [0, 1), searching only between the guide entries of u's
// bucket b = floor(u·buckets). That range always holds it: u lies in
// [b/buckets, (b+1)/buckets), rounding is monotone, so x lies between the
// x values the two bucket edges yield, and so does its lower bound.
func (sp *weightedPrefixes) index(u float64) int {
	b := int(u * float64(len(sp.guide)-1))
	return sp.lowerBound(u*sp.total, int(sp.guide[b]), int(sp.guide[b+1]))
}

// lowerBound returns the smallest i in [lo, hi] with cum[i] >= x, or hi
// when there is none.
func (sp *weightedPrefixes) lowerBound(x float64, lo, hi int) int {
	for lo < hi {
		mid := (lo + hi) / 2
		if sp.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// NewRealm indexes the topology's customers by home PoP. Multihomed
// customers contribute their address space at their primary home (address
// space does not move during ingress shifts; only routing does).
func NewRealm(top *topology.Topology) *Realm {
	r := &Realm{spaces: make([]weightedPrefixes, top.NumPoPs())}
	for i := range top.Customers {
		c := &top.Customers[i]
		sp := &r.spaces[c.Homes[0]]
		for _, p := range c.Prefixes {
			sp.prefixes = append(sp.prefixes, p)
			sp.total += c.Weight
			sp.cum = append(sp.cum, sp.total)
		}
	}
	for i := range r.spaces {
		if len(r.spaces[i].prefixes) > 0 {
			r.spaces[i].buildGuide()
		}
	}
	return r
}

// prefixAt picks a customer prefix at the PoP, weighted by customer size.
func (r *Realm) prefixAt(p topology.PoP, rng *rand.Rand) ipaddr.Prefix {
	sp := &r.spaces[p]
	if len(sp.prefixes) == 0 {
		panic(fmt.Sprintf("traffic: no customer prefixes at %s", p))
	}
	return sp.prefixes[sp.index(rng.Float64())]
}

// largestPrefixAt returns the first (largest-weight) prefix at the PoP.
func (r *Realm) largestPrefixAt(p topology.PoP) ipaddr.Prefix {
	sp := &r.spaces[p]
	if len(sp.prefixes) == 0 {
		panic(fmt.Sprintf("traffic: no customer prefixes at %s", p))
	}
	return sp.prefixes[0]
}

// DrawAddr instantiates an address template.
func (r *Realm) DrawAddr(t *AddrTemplate, rng *rand.Rand) ipaddr.Addr {
	switch t.Mode {
	case AddrFixed:
		return t.Fixed
	case AddrRandomAtPoP:
		return r.prefixAt(t.PoP, rng).Random(rng)
	case AddrHostSetAtPoP:
		hosts := t.Hosts
		if hosts == 0 {
			hosts = 1
		}
		return r.largestPrefixAt(t.PoP).Nth(rng.Uint64N(hosts))
	case AddrRandomInPrefix:
		return t.Prefix.Random(rng)
	case AddrSpoofed:
		return ipaddr.Addr(rng.Uint32())
	default:
		panic(fmt.Sprintf("traffic: unknown addr mode %d", t.Mode))
	}
}

// DrawPort instantiates a port template.
func DrawPort(t *PortTemplate, rng *rand.Rand) uint16 {
	switch t.Mode {
	case PortFixed:
		return t.Port
	case PortEphemeral:
		return uint16(1024 + rng.UintN(65536-1024))
	case PortRandom:
		return uint16(rng.UintN(65536))
	case PortRange:
		if t.Hi < t.Lo {
			panic(fmt.Sprintf("traffic: port range [%d,%d] inverted", t.Lo, t.Hi))
		}
		return t.Lo + uint16(rng.UintN(uint(t.Hi-t.Lo)+1))
	default:
		panic(fmt.Sprintf("traffic: unknown port mode %d", t.Mode))
	}
}
