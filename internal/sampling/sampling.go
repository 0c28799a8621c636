// Package sampling models Juniper Traffic Sampling as used on Abilene:
// random sampling that captures a fixed fraction (1%) of all packets
// entering every router, with sampled packets then aggregated at the
// 5-tuple IP-flow level.
//
// For a flow carrying n packets the number of sampled packets is
// Binomial(n, rate). The sampler uses an exact geometric-skip method for
// small expected counts and a clamped normal approximation for large ones,
// so it is both statistically faithful and O(sampled packets) cheap.
package sampling

import (
	"fmt"
	"math"
	"math/rand/v2"

	"netwide/internal/flow"
)

// AbileneRate is the sampling rate used in the paper: 1% of packets.
const AbileneRate = 0.01

// Binomial draws from Binomial(n, p).
//
// Strategy: for expected successes np <= smallMeanCutoff it uses the exact
// geometric inter-arrival (waiting time) method, whose cost is proportional
// to the number of successes; otherwise it uses a normal approximation with
// continuity correction clamped to [0, n], which at np > 50 has negligible
// error relative to the traffic noise being modeled.
func Binomial(n uint64, p float64, rng *rand.Rand) uint64 {
	if p <= 0 || n == 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	return binomial(n, p, math.Log1p(-p), rng)
}

// binomial is Binomial for 0 < p < 1 and n > 0 with lq = Log1p(-p) supplied
// by the caller, so a constant rate pays for its logarithm once.
func binomial(n uint64, p, lq float64, rng *rand.Rand) uint64 {
	const smallMeanCutoff = 50
	mean := float64(n) * p
	if mean <= smallMeanCutoff {
		// Geometric skips: the gap until the next sampled packet is
		// Geometric(p); count how many fit in n trials.
		var count, trial uint64
		for {
			u := rng.Float64()
			// Log1p(-u) keeps full precision as u -> 0 (where log(1-u)
			// cancels catastrophically) and saves a subtraction in the
			// hottest RNG loop of the simulator.
			skip := uint64(math.Floor(math.Log1p(-u)/lq)) + 1
			if trial+skip > n || trial+skip < trial { // overflow guard
				return count
			}
			trial += skip
			count++
		}
	}
	sd := math.Sqrt(mean * (1 - p))
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
// one with NewSampler, which also fills the rate's derived constant.
type Sampler struct {
	// Rate is the per-packet sampling probability in (0, 1].
	Rate float64
	// logMiss is Log1p(-Rate), the log-probability that one packet is not
	// sampled: every draw below needs it and the rate never changes.
	logMiss float64
}

// NewSampler validates the rate and returns a sampler.
func NewSampler(rate float64) (Sampler, error) {
	if !(rate > 0 && rate <= 1) {
		return Sampler{}, fmt.Errorf("sampling: rate %v out of (0,1]", rate)
	}
	return Sampler{Rate: rate, logMiss: math.Log1p(-rate)}, nil
}

// Sample applies packet sampling to a true flow record. It returns the
// sampled record and true if at least one packet of the flow was sampled;
// flows with no sampled packets are invisible to the measurement system,
// exactly as with real sampled NetFlow. Sampled bytes are the sampled
// packet count times the flow's mean packet size (per-packet sizes are not
// retained at this layer, matching what a flow record can know).
func (s Sampler) Sample(r flow.Record, rng *rand.Rand) (flow.Record, bool) {
	if r.Packets == 0 {
		return flow.Record{}, false
	}
	k := Binomial(r.Packets, s.Rate, rng)
	if k == 0 {
		return flow.Record{}, false
	}
	meanPkt := float64(r.Bytes) / float64(r.Packets)
	return flow.Record{
		Key:     r.Key,
		Packets: k,
		Bytes:   uint64(math.Round(meanPkt * float64(k))),
	}, true
}

// InverseEstimate scales a sampled count back to an (unbiased) estimate of
// the true count, the standard 1/rate estimator used when reporting
// sampled-NetFlow volumes.
func (s Sampler) InverseEstimate(sampled uint64) float64 {
	return float64(sampled) / s.Rate
}

// FlowDetectionProb returns the probability that a flow of n packets is
// seen at all under the sampling rate: 1 - (1-rate)^n. This is the
// flow-count deflation factor of Duffield et al. (SIGCOMM 2003), which the
// F-type (IP-flow count) timeseries inherits.
func (s Sampler) FlowDetectionProb(n uint64) float64 {
	return -math.Expm1(float64(n) * s.logMiss)
}

// VisiblePackets draws the sampled packet count of an n-packet flow known
// to be visible — BinomialAtLeastOne(n, Rate) — given pVis =
// FlowDetectionProb(n), which a caller drawing many flows of one size
// computes once. Same draws from rng, same result, without the per-flow
// logarithms.
func (s Sampler) VisiblePackets(n uint64, pVis float64, rng *rand.Rand) uint64 {
	if n == 0 {
		panic("sampling: VisiblePackets with n=0")
	}
	if s.Rate >= 1 {
		return n
	}
	return atLeastOne(n, s.Rate, s.logMiss, pVis, rng)
}

// BinomialAtLeastOne draws from Binomial(n, p) conditioned on the result
// being at least 1 — the per-flow sampled packet count of a flow that is
// known to be visible.
//
// It uses the exact decomposition X = 1 + Binomial(n-G, p), where G is the
// trial index of the first success, geometric truncated to [1, n]:
// P(G = g) = p(1-p)^(g-1) / (1-(1-p)^n).
func BinomialAtLeastOne(n uint64, p float64, rng *rand.Rand) uint64 {
	if n == 0 {
		panic("sampling: BinomialAtLeastOne with n=0")
	}
	if p >= 1 {
		return n
	}
	if p <= 0 {
		// Degenerate conditioning; the only consistent answer is 1.
		return 1
	}
	lq := math.Log1p(-p)
	return atLeastOne(n, p, lq, -math.Expm1(float64(n)*lq), rng)
}

// atLeastOne is BinomialAtLeastOne for 0 < p < 1 with lq = Log1p(-p) and
// pVis = 1-(1-p)^n supplied by the caller.
func atLeastOne(n uint64, p, lq, pVis float64, rng *rand.Rand) uint64 {
	u := rng.Float64() * pVis
	g := uint64(math.Ceil(math.Log1p(-u) / lq))
	if g < 1 {
		g = 1
	}
	if g > n {
		g = n
	}
	if g == n {
		return 1
	}
	return 1 + binomial(n-g, p, lq, rng)
}

// Poisson draws from Poisson(lambda). Knuth's product method is used for
// small means and a clamped normal approximation for large ones, mirroring
// the accuracy/cost trade-off of Binomial.
func Poisson(lambda float64, rng *rand.Rand) uint64 {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		var k uint64
		p := 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return k
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
