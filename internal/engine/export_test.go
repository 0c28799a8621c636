package engine

import (
	"math/rand/v2"

	"netwide/internal/mat"
)

// Hooks for the tests of this directory in package engine_test, which
// import packages (identify) that import engine.
var (
	RefFit    = refFit
	SameModel = sameModel
	SameBits  = sameBits
)

// SpikedTraffic is diurnalTraffic with a spike of magnitude mag on one OD
// every 37 bins, and every 101st bin raised by mag/4 on every OD, so both
// statistics alarm.
func SpikedTraffic(rng *rand.Rand, n, p int, mag float64) *mat.Matrix {
	var spikes []spike
	for bin := 20; bin < n; bin += 37 {
		spikes = append(spikes, spike{bin: bin, od: (bin * 7) % p, mag: mag})
	}
	x := diurnalTraffic(rng, n, p, 2, spikes)
	for bin := 50; bin < n; bin += 101 {
		for j, v := range x.RowView(bin) {
			x.Set(bin, j, v+mag/4)
		}
	}
	return x
}
