package traffic

import (
	"fmt"
	"math/rand/v2"

	"netwide/internal/gravity"
	"netwide/internal/sampling"
	"netwide/internal/topology"
)

// Background generates the anomaly-free offered load of the network as
// FlowClass groups, deterministically keyed by (seed, OD pair, bin): the
// same bin can be regenerated in isolation at any time, which the dataset
// layer exploits to recompute attribute detail only where anomalies were
// detected.
type Background struct {
	Top     *topology.Topology
	Gravity *gravity.Model
	Realm   *Realm
	Mix     Mix
	Profile Profile
	// MeanRateBps is the network-wide long-run mean offered load in
	// bytes/second.
	MeanRateBps float64
	// NoiseSigma is the lognormal sigma of per-(OD,bin) volume noise.
	NoiseSigma float64
	// Seed drives all randomness.
	Seed uint64
}

// NewBackground wires a Background over the topology with the default mix
// and profile.
func NewBackground(top *topology.Topology, meanRateBps float64, seed uint64) (*Background, error) {
	if meanRateBps <= 0 {
		return nil, fmt.Errorf("traffic: mean rate %v must be positive", meanRateBps)
	}
	g, err := gravity.New(top, 0.2)
	if err != nil {
		return nil, err
	}
	mix := DefaultMix()
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	return &Background{
		Top:         top,
		Gravity:     g,
		Realm:       NewRealm(top),
		Mix:         mix,
		Profile:     DefaultProfile(),
		MeanRateBps: meanRateBps,
		NoiseSigma:  0.12,
		Seed:        seed,
	}, nil
}

// BinSeed returns the PCG seed of the deterministic RNG stream for
// (od, bin). All layers that add randomness to a bin must draw from this
// stream (or from LognormalNoise) so that regeneration is exact. A caller
// regenerating many cells reseeds one rand.PCG in place (PCG.Seed sets
// exactly the state NewPCG does) instead of allocating a generator a cell.
func (b *Background) BinSeed(od topology.ODPair, bin int) (seed1, seed2 uint64) {
	s1 := b.Seed ^ (uint64(b.Top.Index(od))+1)*0x9E3779B97F4A7C15
	s2 := (uint64(bin) + 1) * 0xBF58476D1CE4E5B9
	return s1, s2
}

// TrueVolume returns the true (pre-sampling) background byte volume offered
// by the OD pair during the bin.
func (b *Background) TrueVolume(od topology.ODPair, bin int) float64 {
	mean := b.MeanRateBps * BinSeconds * b.Gravity.Fraction(od)
	return mean * b.Profile.At(bin) * LognormalNoise(b.Seed, b.Top.Index(od), bin, b.NoiseSigma)
}

// Classes returns the background flow classes for (od, bin), scaling the
// mix to the bin's true volume. Flow counts are Poisson around their
// expectation, drawn from the bin's deterministic RNG stream.
func (b *Background) Classes(od topology.ODPair, bin int, rng *rand.Rand) []FlowClass {
	return b.ClassesForVolume(od, b.TrueVolume(od, bin), rng)
}

// ClassesForVolume is Classes with an explicit true byte volume; anomaly
// injectors use it to scale the background up or down (outages, ingress
// shifts) before the mix is expanded into classes.
func (b *Background) ClassesForVolume(od topology.ODPair, vol float64, rng *rand.Rand) []FlowClass {
	return b.AppendClassesForVolume(make([]FlowClass, 0, 16), od, vol, rng)
}

// AppendClassesForVolume appends the bin's classes to out and returns the
// extended slice. It is the allocation-free form of ClassesForVolume: the
// generation hot loop passes a per-worker scratch slice whose capacity is
// reused across cells. The rng stream is consumed identically either way.
func (b *Background) AppendClassesForVolume(out []FlowClass, od topology.ODPair, vol float64, rng *rand.Rand) []FlowClass {
	for _, app := range b.Mix {
		appBytes := vol * app.VolumeShare
		for _, sc := range app.Sizes {
			classBytes := appBytes * sc.VolumeFrac
			meanFlows := classBytes / (float64(sc.PktsPerFlow) * sc.BytesPerPkt)
			count := sampling.Poisson(meanFlows, rng)
			if count == 0 {
				continue
			}
			out = append(out, FlowClass{
				Count:       count,
				PktsPerFlow: sc.PktsPerFlow,
				BytesPerPkt: sc.BytesPerPkt,
				Proto:       app.Proto,
				Src:         AddrTemplate{Mode: AddrRandomAtPoP, PoP: od.Origin},
				Dst:         AddrTemplate{Mode: AddrRandomAtPoP, PoP: od.Dest},
				SrcPort:     PortTemplate{Mode: PortEphemeral},
				DstPort:     app.DstPort,
			})
		}
	}
	return out
}
