package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile (p in (0,100]) of an ascending
// sample; 0 for an empty one.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(asc) {
		rank = len(asc)
	}
	return asc[rank-1]
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method),
// because that is what the driver and `bench compare` judge spreads with.
// Fewer than two samples have no spread: all three are the sample itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return asc[0], asc[0], asc[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// iqrShare is the inter-quartile range as a share of the median — the
// spread every bound in BENCHMARK.json is compared against.
func iqrShare(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// percentileLadder lists the tail percentiles a timing may be reported at.
var percentileLadder = []float64{99.99, 99.9, 99, 90}

// highPercentile picks the highest ladder percentile that still has at
// least ten samples beyond it; 0 when the sample supports none (fewer than
// 100 samples), in which case only the median is reported.
func highPercentile(n int) float64 {
	for _, p := range percentileLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// timing is how every timed quantity is reported: sample count, median,
// quartiles, and the highest percentile the sample supports.
type timing struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	HighP  float64 `json:"high_percentile,omitempty"`
	High   float64 `json:"high_value,omitempty"`
}

func summarize(xs []float64) timing {
	q1, m, q3 := quartiles(xs)
	t := timing{N: len(xs), Median: m, Q1: q1, Q3: q3}
	if p := highPercentile(len(xs)); p > 0 {
		t.HighP, t.High = p, percentile(sorted(xs), p)
	}
	return t
}
