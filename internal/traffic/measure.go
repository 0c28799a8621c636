package traffic

import (
	"math"
	"math/rand/v2"

	"netwide/internal/flow"
	"netwide/internal/sampling"
)

// Measure converts a FlowClass into the sampled flow records a router would
// export for it, invoking emit for each visible record.
//
// The statistics reproduce per-flow packet sampling without materializing
// true flows:
//
//   - the number of flows visible at all is Binomial(Count, 1-(1-q)^n);
//   - each visible flow's sampled packet count is Binomial(n, q)
//     conditioned on being at least 1 (resampled by clamping, whose bias is
//     negligible at the class sizes used here);
//   - addresses and ports are drawn per visible flow from the class
//     templates.
//
// The return values are the total sampled bytes, packets and flow count for
// the class, which the caller accumulates into the B/P/F matrices.
func Measure(c FlowClass, s sampling.Sampler, realm *Realm, rng *rand.Rand, emit func(flow.Record)) (bytes, packets, flows uint64) {
	if c.Count == 0 {
		return 0, 0, 0
	}
	pVis := s.FlowDetectionProb(c.PktsPerFlow)
	visible := sampling.Binomial(c.Count, pVis, rng)
	if visible == 0 {
		return 0, 0, 0
	}
	for i := uint64(0); i < visible; i++ {
		pkts := s.VisiblePackets(c.PktsPerFlow, pVis, rng)
		b := uint64(math.Round(float64(pkts) * c.BytesPerPkt))
		rec := flow.Record{
			Key: flow.Key{
				Src:     realm.DrawAddr(c.Src, rng),
				Dst:     realm.DrawAddr(c.Dst, rng),
				SrcPort: DrawPort(c.SrcPort, rng),
				DstPort: DrawPort(c.DstPort, rng),
				Proto:   c.Proto,
			},
			Bytes:   b,
			Packets: pkts,
		}
		bytes += b
		packets += pkts
		flows++
		if emit != nil {
			emit(rec)
		}
	}
	return bytes, packets, flows
}
