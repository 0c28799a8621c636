package sampling

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netwide/internal/flow"
	"netwide/internal/ipaddr"
)

func TestBinomialEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	if Binomial(0, 0.5, rng) != 0 {
		t.Fatal("n=0 must give 0")
	}
	if Binomial(100, 0, rng) != 0 {
		t.Fatal("p=0 must give 0")
	}
	if Binomial(100, 1, rng) != 100 {
		t.Fatal("p=1 must give n")
	}
	for i := 0; i < 100; i++ {
		if k := Binomial(10, 0.3, rng); k > 10 {
			t.Fatalf("k=%d exceeds n", k)
		}
	}
}

func TestBinomialMomentsSmallMean(t *testing.T) {
	// Exact geometric-skip branch: n=1000, p=0.01, mean 10.
	rng := rand.New(rand.NewPCG(2, 2))
	const trials = 20000
	var sum, sumsq float64
	for i := 0; i < trials; i++ {
		k := float64(Binomial(1000, 0.01, rng))
		sum += k
		sumsq += k * k
	}
	mean := sum / trials
	variance := sumsq/trials - mean*mean
	if math.Abs(mean-10) > 0.15 {
		t.Fatalf("mean %v, want ~10", mean)
	}
	if math.Abs(variance-9.9) > 0.6 {
		t.Fatalf("variance %v, want ~9.9", variance)
	}
}

func TestBinomialMomentsLargeMean(t *testing.T) {
	// Normal-approximation branch: n=100000, p=0.01, mean 1000.
	rng := rand.New(rand.NewPCG(3, 3))
	const trials = 5000
	var sum, sumsq float64
	for i := 0; i < trials; i++ {
		k := float64(Binomial(100000, 0.01, rng))
		sum += k
		sumsq += k * k
	}
	mean := sum / trials
	variance := sumsq/trials - mean*mean
	if math.Abs(mean-1000) > 3 {
		t.Fatalf("mean %v, want ~1000", mean)
	}
	if math.Abs(variance-990)/990 > 0.15 {
		t.Fatalf("variance %v, want ~990", variance)
	}
}

func TestNewSamplerValidates(t *testing.T) {
	for _, r := range []float64{0, -1, 1.5} {
		if _, err := NewSampler(r); err == nil {
			t.Fatalf("rate %v accepted", r)
		}
	}
	if _, err := NewSampler(AbileneRate); err != nil {
		t.Fatal(err)
	}
}

func testRecord(pkts, bytes uint64) flow.Record {
	return flow.Record{
		Key: flow.Key{
			Src: ipaddr.FromOctets(10, 0, 0, 1), Dst: ipaddr.FromOctets(10, 16, 0, 1),
			SrcPort: 1234, DstPort: 80, Proto: flow.ProtoTCP,
		},
		Packets: pkts, Bytes: bytes,
	}
}

func TestSampleSmallFlowsOftenInvisible(t *testing.T) {
	s, _ := NewSampler(0.01)
	rng := rand.New(rand.NewPCG(4, 4))
	seen := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		if _, ok := s.Sample(testRecord(3, 1500), rng); ok {
			seen++
		}
	}
	// P(seen) = 1-(0.99)^3 = 0.0297.
	frac := float64(seen) / trials
	if frac < 0.02 || frac > 0.04 {
		t.Fatalf("small-flow visibility %v, want ~0.03", frac)
	}
	want := s.FlowDetectionProb(3)
	if math.Abs(want-0.029701) > 1e-6 {
		t.Fatalf("FlowDetectionProb=%v", want)
	}
}

func TestSampleUnbiasedVolume(t *testing.T) {
	s, _ := NewSampler(0.01)
	rng := rand.New(rand.NewPCG(5, 5))
	const trials = 3000
	var estSum float64
	rec := testRecord(10000, 10000*700)
	for i := 0; i < trials; i++ {
		out, ok := s.Sample(rec, rng)
		if !ok {
			continue // mean 100 sampled packets; invisibility is ~0
		}
		estSum += s.InverseEstimate(out.Packets)
	}
	est := estSum / trials
	if math.Abs(est-10000)/10000 > 0.02 {
		t.Fatalf("inverse estimator mean %v, want ~10000", est)
	}
}

func TestSamplePreservesMeanPacketSize(t *testing.T) {
	s, _ := NewSampler(0.05)
	rng := rand.New(rand.NewPCG(6, 6))
	rec := testRecord(5000, 5000*432)
	out, ok := s.Sample(rec, rng)
	if !ok {
		t.Fatal("large flow invisible")
	}
	mps := float64(out.Bytes) / float64(out.Packets)
	if math.Abs(mps-432) > 1 {
		t.Fatalf("mean packet size %v, want 432", mps)
	}
}

func TestSampleZeroPacketFlow(t *testing.T) {
	s, _ := NewSampler(0.5)
	rng := rand.New(rand.NewPCG(7, 7))
	if _, ok := s.Sample(flow.Record{}, rng); ok {
		t.Fatal("zero-packet flow sampled")
	}
}

// Property: sampled packets never exceed the original, and sampled bytes
// never exceed original bytes (within rounding of the mean packet size).
func TestPropSampleBounds(t *testing.T) {
	s, _ := NewSampler(0.1)
	f := func(seed uint64, pktsRaw uint32) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		pkts := uint64(pktsRaw%100000) + 1
		rec := testRecord(pkts, pkts*800)
		out, ok := s.Sample(rec, rng)
		if !ok {
			return true
		}
		return out.Packets <= pkts && out.Packets > 0 && out.Bytes <= rec.Bytes+800
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: FlowDetectionProb is a CDF-like monotone function of n.
func TestPropDetectionProbMonotone(t *testing.T) {
	s, _ := NewSampler(0.01)
	f := func(a, b uint16) bool {
		n1, n2 := uint64(a), uint64(b)
		if n1 > n2 {
			n1, n2 = n2, n1
		}
		p1, p2 := s.FlowDetectionProb(n1), s.FlowDetectionProb(n2)
		return p1 <= p2+1e-12 && p1 >= 0 && p2 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBinomialSmall(b *testing.B) {
	rng := rand.New(rand.NewPCG(8, 8))
	for i := 0; i < b.N; i++ {
		Binomial(500, 0.01, rng)
	}
}

func BenchmarkBinomialLarge(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < b.N; i++ {
		Binomial(1_000_000, 0.01, rng)
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 10))
	for _, lambda := range []float64{0.5, 5, 20, 100} {
		const trials = 20000
		var sum, sumsq float64
		for i := 0; i < trials; i++ {
			k := float64(Poisson(lambda, rng))
			sum += k
			sumsq += k * k
		}
		mean := sum / trials
		variance := sumsq/trials - mean*mean
		if math.Abs(mean-lambda)/lambda > 0.05 {
			t.Fatalf("lambda=%v: mean %v", lambda, mean)
		}
		if math.Abs(variance-lambda)/lambda > 0.12 {
			t.Fatalf("lambda=%v: variance %v", lambda, variance)
		}
	}
	if Poisson(0, rng) != 0 || Poisson(-3, rng) != 0 {
		t.Fatal("non-positive lambda must give 0")
	}
}

func TestBinomialAtLeastOneExactMean(t *testing.T) {
	// E[X | X>=1] = n*p / (1-(1-p)^n).
	rng := rand.New(rand.NewPCG(11, 11))
	for _, tc := range []struct {
		n uint64
		p float64
	}{{2, 0.01}, {100, 0.01}, {1000, 0.01}, {10, 0.3}} {
		pVis := -math.Expm1(float64(tc.n) * math.Log1p(-tc.p))
		want := float64(tc.n) * tc.p / pVis
		const trials = 40000
		var sum float64
		for i := 0; i < trials; i++ {
			k := BinomialAtLeastOne(tc.n, tc.p, rng)
			if k < 1 || k > tc.n {
				t.Fatalf("n=%d p=%v: draw %d out of range", tc.n, tc.p, k)
			}
			sum += float64(k)
		}
		mean := sum / trials
		if math.Abs(mean-want)/want > 0.03 {
			t.Fatalf("n=%d p=%v: mean %v, want %v", tc.n, tc.p, mean, want)
		}
	}
}

func TestBinomialAtLeastOneEdges(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 12))
	if BinomialAtLeastOne(5, 1, rng) != 5 {
		t.Fatal("p=1 must give n")
	}
	if BinomialAtLeastOne(5, 0, rng) != 1 {
		t.Fatal("p=0 degenerate case must give 1")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("n=0 accepted")
		}
	}()
	BinomialAtLeastOne(0, 0.5, rng)
}

// TestVisiblePacketsMatchesBinomialAtLeastOne: the sampler's hoisted form
// draws the same numbers from the same stream as the free function it
// stands in for, flow after flow, at every branch (n = 1, the geometric
// small-mean path, the normal large-mean path, rate 1).
func TestVisiblePacketsMatchesBinomialAtLeastOne(t *testing.T) {
	for _, rate := range []float64{AbileneRate, 0.3, 1} {
		s, err := NewSampler(rate)
		if err != nil {
			t.Fatal(err)
		}
		a, b := rand.New(rand.NewPCG(9, 10)), rand.New(rand.NewPCG(9, 10))
		for _, n := range []uint64{1, 2, 7, 100, 4999, 5001, 1 << 20} {
			pVis := s.FlowDetectionProb(n)
			for i := 0; i < 200; i++ {
				if got, want := s.VisiblePackets(n, pVis, a), BinomialAtLeastOne(n, rate, b); got != want {
					t.Fatalf("rate %v n %d draw %d: VisiblePackets %d, BinomialAtLeastOne %d", rate, n, i, got, want)
				}
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("rate %v: the two forms consumed different amounts of the stream", rate)
		}
	}
}
