// Package sampling models Juniper Traffic Sampling as used on Abilene:
// random sampling that captures a fixed fraction (1%) of all packets
// entering every router, with sampled packets then aggregated at the
// 5-tuple IP-flow level.
//
// For a flow carrying n packets the number of sampled packets is
// Binomial(n, rate). The sampler uses an exact geometric-skip method for
// small expected counts and a clamped normal approximation for large ones,
// so it is both statistically faithful and O(sampled packets) cheap.
//
// Bracket, then exact. The simulator draws a geometric skip per sampled
// packet and a Poisson count per flow class, and each of those is a
// transcendental of a uniform draw compared with, or rounded to, an
// integer. The package decides each comparison first against a cheap
// bracket whose error bound is derived, not measured (fastFloor: a table
// logarithm; Poisson: tabulated exp knots), and evaluates the plain
// expression — math.Log1p, math.Exp — only when the bracket cannot decide.
// Every returned value and every RNG draw is therefore the one the plain
// expression gives; the oracle tests in sampling_test.go hold the fast
// paths to the plain bodies value for value and draw for draw.
package sampling

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// AbileneRate is the sampling rate used in the paper: 1% of packets.
const AbileneRate = 0.01

// maxSkip caps a geometric skip or first-success index before its
// float64 → uint64 conversion. Past 2⁶³ the conversion is
// implementation-specific: amd64 yields 2⁶³ and arm64 saturates to 2⁶⁴−1,
// which wrapped the skip to 0 and never returned. Any skip this large
// already exceeds every trial count below 2⁶³, so the cap changes no
// result there and gives amd64's value everywhere else.
const maxSkip = 0x1p63

// geometric carries the constants of one success probability p that the
// geometric skips of Binomial(n, p) need. Construct with newGeometric.
type geometric struct {
	p     float64
	lq    float64 // Log1p(-p), the log-probability of one failure
	invLq float64 // 1/lq
	// slack is the part of fastFloor's error bound that does not scale
	// with the ratio: skipErrAbs/|lq| plus the comparison slack.
	slack float64
}

func newGeometric(p float64) geometric {
	lq := math.Log1p(-p)
	return geometric{p: p, lq: lq, invLq: 1 / lq, slack: skipErrAbs/-lq + cmpSlack}
}

// The error bound of fastFloor, in two parts: an absolute error in the
// logarithm (divided by |lq| to become an error in the ratio) and an
// error relative to the ratio. DESIGN.md E28 derives, for x = 1−u as
// evaluated and the ratio Log1p(−u)/lq as the float64 expression gives it,
//
//	|fastLog(x)·invLq − Log1p(−u)/lq| ≤ 2⁻⁴⁹·⁸/|lq| + 2⁻⁴⁹·⁵·ratio
//
// (table logarithm 2⁻⁵⁰ absolute plus 2⁻⁵¹ relative; rounding of 1−u at
// most 2⁻⁵³ in the logarithm — 1−u is exact for u ≥ ½ and for every
// Float64 draw; Log1p within 2 ulp; the division, 1/lq and the product one
// rounding each). The constants below are 10× or more above it, so a
// rounding regime the derivation missed (a fused multiply-add on arm64, an
// assembly Log1p) still cannot make a decided skip differ; cmpSlack covers
// the rounding of the bound itself and of 1−e.
const (
	skipErrAbs = 0x1p-46
	skipErrRel = 0x1p-46
	cmpSlack   = 0x1p-50
)

// fastFloor returns k = floor(Log1p(-u)/g.lq) — the value that float64
// expression takes — and ok, when the table logarithm of x = 1−u (as
// evaluated) decides it. With a = fastLog(x)·invLq within e of the ratio,
// e < a−k < 1−e puts the ratio strictly inside (k, k+1), so k is its floor
// and k+1 its ceiling. a−k is exact for 0 ≤ a < 2⁵²; a ratio the bound
// cannot place (near an integer, past 2⁵², a < 0 since then a−k lies
// within e of 1, an infinite or NaN bound) returns ok = false and the
// caller evaluates the expression.
func (g *geometric) fastFloor(x float64) (k float64, ok bool) {
	a := fastLog(x) * g.invLq
	k = math.Floor(a)
	d := a - k
	e := g.slack + skipErrRel*a
	return k, e < d && d < 1-e
}

// fastLog approximates ln x for normal x > 0: x = 2^k·z with z in
// [0.6875, 1.375), z·invc = 1+r with |r| ≤ 2⁻⁸ for the table entry of z's
// 1/128 subinterval, ln x = k·ln2 − ln(invc) + log1p(r), and log1p(r) by
// its degree-5 Taylor polynomial (truncation ≤ |r|⁶/(6(1−|r|)) ≈ 2⁻⁵⁰·⁶).
// The absolute error is at most 2⁻⁵⁰ + 2⁻⁵¹·|ln x| (E28), with or without
// fused multiply-adds: a fused step rounds once where the bound counts two.
func fastLog(x float64) float64 {
	bits := math.Float64bits(x)
	tmp := bits - logTableOff
	i := (tmp >> (52 - logTableBits)) % (1 << logTableBits)
	k := int64(tmp) >> 52
	z := math.Float64frombits(bits - tmp&(0xfff<<52))
	t := &logTable[i]
	r := z*t.invc - 1
	r2 := r * r
	p := r + r2*(-0.5+r*(1.0/3)) + r2*r2*(-0.25+r*0.2)
	return float64(k)*math.Ln2 + t.logc + p
}

const (
	logTableBits = 7
	// logTableOff is the bit pattern of 0.6875: subtracting it from x's
	// bits makes the exponent field k and the top mantissa bits the table
	// index, with z = x/2^k in [0.6875, 1.375). No subinterval straddles
	// 1.0 (index 80 starts there).
	logTableOff = 0x3fe6000000000000
)

// logTable[i] holds, for the i-th subinterval of [0.6875, 1.375) in z's
// bit pattern, invc ≈ 1/(its midpoint) and logc = −Log(invc), so that
// ln z = logc + log1p(z·invc − 1) holds for the stored invc exactly.
var logTable [1 << logTableBits]struct{ invc, logc float64 }

func init() {
	for i := range logTable {
		lo := math.Float64frombits(logTableOff + uint64(i)<<(52-logTableBits))
		hi := math.Float64frombits(logTableOff + uint64(i+1)<<(52-logTableBits))
		invc := 2 / (lo + hi)
		logTable[i].invc = invc
		logTable[i].logc = -math.Log(invc)
	}
}

// drawBinomial draws from Binomial(n, g.p), with p's constants supplied by
// the caller, so a probability drawn from many times pays for its
// logarithms once.
//
// Strategy: for expected successes np <= smallMeanCutoff it uses the exact
// geometric inter-arrival (waiting time) method, whose cost is proportional
// to the number of successes; otherwise it uses a normal approximation with
// continuity correction clamped to [0, n], which at np > 50 has negligible
// error relative to the traffic noise being modeled.
func drawBinomial(n uint64, g *geometric, rng *rand.Rand) uint64 {
	if g.p <= 0 || n == 0 {
		return 0
	}
	if g.p >= 1 {
		return n
	}
	return binomial(n, g, rng)
}

// binomial is drawBinomial for 0 < p < 1 and n > 0.
func binomial(n uint64, g *geometric, rng *rand.Rand) uint64 {
	const smallMeanCutoff = 50
	mean := float64(n) * g.p
	if mean <= smallMeanCutoff {
		// Geometric skips: the gap until the next sampled packet is
		// Geometric(p); count how many fit in n trials. The skip is
		// floor(Log1p(-u)/lq) + 1 — Log1p(-u) keeps full precision as u -> 0,
		// where log(1-u) cancels catastrophically — decided by fastFloor
		// wherever its bound allows.
		var count, trial uint64
		for {
			u := rng.Float64()
			k, ok := g.fastFloor(1 - u)
			if !ok {
				k = math.Floor(math.Log1p(-u) / g.lq)
			}
			skip := uint64(min(k, maxSkip)) + 1
			if trial+skip > n || trial+skip < trial { // overflow guard
				return count
			}
			trial += skip
			count++
		}
	}
	sd := math.Sqrt(mean * (1 - g.p))
	x := math.Round(mean + sd*rng.NormFloat64())
	if x < 0 {
		return 0
	}
	if x > float64(n) {
		return n
	}
	return uint64(x)
}

// Sampler thins packet streams at a fixed per-packet probability. Construct
// one with NewSampler, which also fills the rate's derived constants and
// the per-size table.
type Sampler struct {
	// Rate is the per-packet sampling probability in (0, 1].
	Rate float64
	// miss holds Rate's geometric constants; its lq = Log1p(-Rate) is the
	// log-probability that one packet is not sampled. Every draw below
	// needs them and the rate never changes.
	miss geometric
	// sizes tabulates FlowSize for the flow sizes NewSampler was given.
	sizes []FlowSize
}

// NewSampler validates the rate and returns a sampler. The flow sizes, if
// any, are tabulated: Size answers them from the table instead of paying
// an Expm1 and a Log1p per call. The default traffic mix has 13 sizes.
func NewSampler(rate float64, sizes ...uint64) (Sampler, error) {
	if !(rate > 0 && rate <= 1) {
		return Sampler{}, fmt.Errorf("sampling: rate %v out of (0,1]", rate)
	}
	s := Sampler{Rate: rate, miss: newGeometric(rate)}
	for _, n := range sizes {
		if s.lookup(n) < 0 {
			s.sizes = append(s.sizes, s.newFlowSize(n))
		}
	}
	return s, nil
}

// FlowDetectionProb returns the probability that a flow of n packets is
// seen at all under the sampling rate: 1 - (1-rate)^n. This is the
// flow-count deflation factor of Duffield et al. (SIGCOMM 2003), which the
// F-type (IP-flow count) timeseries inherits.
func (s *Sampler) FlowDetectionProb(n uint64) float64 {
	return -math.Expm1(float64(n) * s.miss.lq)
}

// FlowSize is what sampling makes of one flow size: the probability
// pVis = FlowDetectionProb(n) that an n-packet flow is seen at all, and
// its geometric constants. A pure function of (rate, n).
type FlowSize struct {
	n   uint64
	vis geometric // p = pVis
}

func (s *Sampler) newFlowSize(n uint64) FlowSize {
	return FlowSize{n: n, vis: newGeometric(s.FlowDetectionProb(n))}
}

func (s *Sampler) lookup(n uint64) int {
	for i := range s.sizes {
		if s.sizes[i].n == n {
			return i
		}
	}
	return -1
}

// Size returns the sampling constants of n-packet flows: from the table
// when NewSampler was given n, computed (identically) otherwise.
func (s *Sampler) Size(n uint64) FlowSize {
	if i := s.lookup(n); i >= 0 {
		return s.sizes[i]
	}
	return s.newFlowSize(n)
}

// Visible draws how many of count flows of the size are seen at all:
// Binomial(count, pVis).
func (f *FlowSize) Visible(count uint64, rng *rand.Rand) uint64 {
	return drawBinomial(count, &f.vis, rng)
}

// VisiblePackets draws the sampled packet count of a flow of the size
// known to be visible: Binomial(n, Rate) conditioned on being at least 1.
//
// It uses the exact decomposition X = 1 + Binomial(n-G, Rate), where G is
// the trial index of the first success, geometric truncated to [1, n]:
// P(G = g) = p(1-p)^(g-1) / (1-(1-p)^n).
func (s *Sampler) VisiblePackets(f *FlowSize, rng *rand.Rand) uint64 {
	if f.n == 0 {
		panic("sampling: VisiblePackets with n=0")
	}
	if s.Rate >= 1 {
		return f.n
	}
	return atLeastOne(f.n, &s.miss, f.vis.p, rng)
}

// atLeastOne is VisiblePackets for 0 < p < 1: G = ceil(Log1p(-u)/lq) with
// u uniform on [0, pVis), decided by fastFloor wherever its bound allows.
func atLeastOne(n uint64, q *geometric, pVis float64, rng *rand.Rand) uint64 {
	// The conversion rounds the product here, before 1-u: a multiply-add
	// fused across it would skip the rounding Log1p(-u) sees, and near
	// u = 1 that moves 1-u by far more than the bound allows.
	u := float64(rng.Float64() * pVis)
	c, ok := q.fastFloor(1 - u)
	if ok {
		c++
	} else {
		c = math.Ceil(math.Log1p(-u) / q.lq)
	}
	g := max(uint64(min(c, maxSkip)), 1)
	if g >= n {
		return 1
	}
	return 1 + binomial(n-g, q, rng)
}

// Poisson draws from Poisson(lambda). Knuth's product method is used for
// small means and a clamped normal approximation for large ones, mirroring
// the accuracy/cost trade-off of drawBinomial.
//
// Knuth's method stops at the first running product p <= exp(-lambda). The
// threshold lies in the tabulated knot bracket [e^{-(j+1)/64}, e^{-j/64}]
// of j = floor(64·lambda), widened by expKnotErr; a product outside the
// bracket is decided by it, and exp(-lambda) itself is computed only when a
// product lands inside (a few percent of draws).
func Poisson(lambda float64, rng *rand.Rand) uint64 {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		j := int(lambda * expKnotsPerUnit)
		hi := expKnots[j] * (1 + expKnotErr)
		lo := expKnots[j+1] * (1 - expKnotErr)
		l := -1.0 // exp(-lambda) once computed; no product is <= -1
		var k uint64
		p := 1.0
		for {
			p *= rng.Float64()
			if p <= lo {
				return k
			}
			if p <= hi {
				if l < 0 {
					l = math.Exp(-lambda)
				}
				if p <= l {
					return k
				}
			}
			k++
		}
	}
	x := math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64())
	if x < 0 {
		return 0
	}
	return uint64(x)
}

// expKnotsPerUnit knots per unit of lambda cover the Knuth range [0, 30).
const expKnotsPerUnit = 64

// expKnotErr widens each knot: math.Exp is within 1 ulp (2⁻⁵²) of e^x for
// the knot and for exp(-lambda) alike, so e^{-j/64}'s stored value times
// 1 ± 2⁻⁴⁰ brackets exp(-lambda) as evaluated with a 2¹⁰-fold margin, the
// rounding of the widened product included.
const expKnotErr = 0x1p-40

// expKnots[j] = Exp(-j/64) for j = 0..30·64.
var expKnots [30*expKnotsPerUnit + 1]float64

func init() {
	for j := range expKnots {
		expKnots[j] = math.Exp(-float64(j) / expKnotsPerUnit)
	}
}
