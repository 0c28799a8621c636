package sampling

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netwide/internal/flow"
	"netwide/internal/ipaddr"
)

// The reference bodies: the plain expressions every fast path must
// reproduce value for value, consuming the same draws. refBinomial and
// refAtLeastOne call Log1p per skip, refPoisson calls Exp per draw; both
// skip conversions carry the maxSkip clamp, the only change to their
// arithmetic.

func refBinomial(n uint64, p, lq float64, rng *rand.Rand) uint64 {
	const smallMeanCutoff = 50
	mean := float64(n) * p
	if mean <= smallMeanCutoff {
		var count, trial uint64
		for {
			u := rng.Float64()
			skip := uint64(min(math.Floor(math.Log1p(-u)/lq), maxSkip)) + 1
			if trial+skip > n || trial+skip < trial {
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

func refAtLeastOne(n uint64, p, lq, pVis float64, rng *rand.Rand) uint64 {
	u := rng.Float64() * pVis
	g := uint64(min(math.Ceil(math.Log1p(-u)/lq), maxSkip))
	if g < 1 {
		g = 1
	}
	if g > n {
		g = n
	}
	if g == n {
		return 1
	}
	return 1 + refBinomial(n-g, p, lq, rng)
}

func refPoisson(lambda float64, rng *rand.Rand) uint64 {
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

// binomialOf draws from Binomial(n, p) for any p through the production
// path: the constants newGeometric computes, then drawBinomial.
func binomialOf(n uint64, p float64, rng *rand.Rand) uint64 {
	g := newGeometric(p)
	return drawBinomial(n, &g, rng)
}

// binomialAtLeastOne draws from Binomial(n, p) conditioned on the result
// being at least 1, through the reference bodies.
func binomialAtLeastOne(n uint64, p float64, rng *rand.Rand) uint64 {
	if n == 0 {
		panic("sampling: binomialAtLeastOne with n=0")
	}
	if p >= 1 {
		return n
	}
	if p <= 0 {
		// Degenerate conditioning; the only consistent answer is 1.
		return 1
	}
	lq := math.Log1p(-p)
	return refAtLeastOne(n, p, lq, -math.Expm1(float64(n)*lq), rng)
}

// sample applies packet sampling to a true flow record: the sampled record
// and true if at least one packet was sampled, with bytes the sampled count
// times the flow's mean packet size.
func sample(s *Sampler, r flow.Record, rng *rand.Rand) (flow.Record, bool) {
	if r.Packets == 0 {
		return flow.Record{}, false
	}
	k := binomialOf(r.Packets, s.Rate, rng)
	if k == 0 {
		return flow.Record{}, false
	}
	meanPkt := float64(r.Bytes) / float64(r.Packets)
	return flow.Record{Key: r.Key, Packets: k, Bytes: uint64(math.Round(meanPkt * float64(k)))}, true
}

func TestBinomialEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	if binomialOf(0, 0.5, rng) != 0 {
		t.Fatal("n=0 must give 0")
	}
	if binomialOf(100, 0, rng) != 0 {
		t.Fatal("p=0 must give 0")
	}
	if binomialOf(100, 1, rng) != 100 {
		t.Fatal("p=1 must give n")
	}
	for i := 0; i < 100; i++ {
		if k := binomialOf(10, 0.3, rng); k > 10 {
			t.Fatalf("k=%d exceeds n", k)
		}
	}
}

// TestBinomialTinyP: at p ≲ 1e-18 the ratio Log1p(-u)/lq passes 2⁶⁴, where
// arm64's saturating conversion wrapped the skip to 0 and the loop never
// returned. The clamp makes every architecture take amd64's answer.
func TestBinomialTinyP(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	for _, n := range []uint64{1, 100, 1 << 40, 1 << 62} {
		for i := 0; i < 100; i++ {
			if k := binomialOf(n, 1e-300, rng); k != 0 {
				t.Fatalf("Binomial(%d, 1e-300) = %d, want 0", n, k)
			}
		}
	}
	s, err := NewSampler(1e-300)
	if err != nil {
		t.Fatal(err)
	}
	f := s.Size(100)
	for i := 0; i < 100; i++ {
		if k := s.VisiblePackets(&f, rng); k != 1 {
			t.Fatalf("VisiblePackets at rate 1e-300 = %d, want 1", k)
		}
	}
}

func TestBinomialMomentsSmallMean(t *testing.T) {
	// Exact geometric-skip branch: n=1000, p=0.01, mean 10.
	rng := rand.New(rand.NewPCG(2, 2))
	const trials = 20000
	var sum, sumsq float64
	for i := 0; i < trials; i++ {
		k := float64(binomialOf(1000, 0.01, rng))
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
		k := float64(binomialOf(100000, 0.01, rng))
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
		if _, ok := sample(&s, testRecord(3, 1500), rng); ok {
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
		out, ok := sample(&s, rec, rng)
		if !ok {
			continue // mean 100 sampled packets; invisibility is ~0
		}
		estSum += float64(out.Packets) / s.Rate // the 1/rate inverse estimate
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
	out, ok := sample(&s, rec, rng)
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
	if _, ok := sample(&s, flow.Record{}, rng); ok {
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
		out, ok := sample(&s, rec, rng)
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
		binomialOf(500, 0.01, rng)
	}
}

func BenchmarkBinomialLarge(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < b.N; i++ {
		binomialOf(1_000_000, 0.01, rng)
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
	// E[X | X>=1] = n*p / (1-(1-p)^n), through the sampler's own path.
	rng := rand.New(rand.NewPCG(11, 11))
	for _, tc := range []struct {
		n uint64
		p float64
	}{{2, 0.01}, {100, 0.01}, {1000, 0.01}, {10, 0.3}} {
		s, err := NewSampler(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		f := s.Size(tc.n)
		want := float64(tc.n) * tc.p / f.vis.p
		const trials = 40000
		var sum float64
		for i := 0; i < trials; i++ {
			k := s.VisiblePackets(&f, rng)
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
	one, _ := NewSampler(1)
	f := one.Size(5)
	if one.VisiblePackets(&f, rng) != 5 {
		t.Fatal("rate 1 must give n")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("n=0 accepted")
		}
	}()
	s, _ := NewSampler(0.5)
	zero := s.Size(0)
	s.VisiblePackets(&zero, rng)
}

// TestVisiblePacketsMatchesBinomialAtLeastOne: the sampler's per-size form
// draws the same numbers from the same stream as the reference body,
// flow after flow, at every branch (n = 1, the geometric small-mean path,
// the normal large-mean path, rate 1), tabulated sizes and computed ones
// alike.
func TestVisiblePacketsMatchesBinomialAtLeastOne(t *testing.T) {
	sizes := []uint64{1, 2, 7, 100, 4999, 5001, 1 << 20}
	for _, rate := range []float64{AbileneRate, 0.3, 1} {
		for _, tab := range [][]uint64{nil, sizes} {
			s, err := NewSampler(rate, tab...)
			if err != nil {
				t.Fatal(err)
			}
			a, b := rand.New(rand.NewPCG(9, 10)), rand.New(rand.NewPCG(9, 10))
			for _, n := range sizes {
				f := s.Size(n)
				if f.vis.p != s.FlowDetectionProb(n) {
					t.Fatalf("rate %v n %d: tabulated pVis %v, FlowDetectionProb %v", rate, n, f.vis.p, s.FlowDetectionProb(n))
				}
				for i := 0; i < 200; i++ {
					if got, want := s.VisiblePackets(&f, a), binomialAtLeastOne(n, rate, b); got != want {
						t.Fatalf("rate %v n %d draw %d: VisiblePackets %d, reference %d", rate, n, i, got, want)
					}
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("rate %v: the two forms consumed different amounts of the stream", rate)
			}
		}
	}
}

// defaultMixSizes are the 13 flow sizes of traffic.DefaultMix (which this
// package cannot import): their pVis are the probabilities the simulator's
// Binomial(count, pVis) draws run at.
var defaultMixSizes = []uint64{10, 60, 700, 14, 90, 2, 20, 150, 1200, 40, 800, 30, 2000}

// skipProbs are the success probabilities the skip oracles cover: the
// sampling rate, every default-mix pVis, a tiny and a near-one p.
func skipProbs() []float64 {
	s, _ := NewSampler(AbileneRate)
	ps := []float64{AbileneRate, 1e-6, 1 - 1e-12}
	for _, n := range defaultMixSizes {
		ps = append(ps, s.FlowDetectionProb(n))
	}
	return ps
}

// checkSkip compares fastFloor against the plain floor and ceiling for
// x = 1-u as the skip loops evaluate it; it reports whether the exact
// expression had to run.
func checkSkip(t testing.TB, g *geometric, u float64) (exact bool) {
	ratio := math.Log1p(-u) / g.lq
	k, ok := g.fastFloor(1 - u)
	if !ok {
		return true
	}
	if k != math.Floor(ratio) || k+1 != math.Ceil(ratio) {
		t.Fatalf("p %v u %v (bits %#x): fastFloor %v, Log1p(-u)/lq = %v (floor %v ceil %v)",
			g.p, u, math.Float64bits(u), k, ratio, math.Floor(ratio), math.Ceil(ratio))
	}
	return false
}

// TestSkipMatchesReference decides ~10⁸ skips both ways (10⁶ under
// -short): uniform Float64 draws as binomial sees them, the same draws
// scaled by p as atLeastOne sees them, and draws placed on the Float64
// grid just either side of every integer boundary of the ratio the
// simulator reaches. It reports how often the exact expression ran.
func TestSkipMatchesReference(t *testing.T) {
	draws := 3_200_000
	if testing.Short() {
		draws = 32_000
	}
	rng := rand.New(rand.NewPCG(14, 14))
	var random, randomExact, placed, placedExact int
	for _, p := range skipProbs() {
		g := newGeometric(p)
		for i := 0; i < draws; i++ {
			u := rng.Float64()
			if checkSkip(t, &g, u) {
				randomExact++
			}
			if checkSkip(t, &g, float64(u*p)) {
				randomExact++
			}
			random += 2
		}
		// Integer boundaries: u* = 1 - (1-p)^m puts the ratio at m; test the
		// Float64 grid points around it.
		for m := 1; m <= 4000; m++ {
			us := -math.Expm1(float64(m) * g.lq)
			if us >= 1 {
				break
			}
			j := int64(us * (1 << 53))
			for d := int64(-3); d <= 3; d++ {
				u := float64(j+d) / (1 << 53)
				if u < 0 || u >= 1 {
					continue
				}
				if checkSkip(t, &g, u) {
					placedExact++
				}
				placed++
			}
		}
	}
	t.Logf("uniform draws: %d skips, exact expression ran %d times; draws placed at integer boundaries: %d, exact %d (%.3g)",
		random, randomExact, placed, placedExact, float64(placedExact)/float64(placed))
}

// TestFastLogErrorBound holds the table logarithm to the bound E28
// derives, 2⁻⁵⁰ + 2⁻⁵¹·|ln x|, against math.Log (itself within 1 ulp),
// over random x in the skip loops' range [2⁻⁵³, 1], both ends of every
// table subinterval, and x next to 1.
func TestFastLogErrorBound(t *testing.T) {
	worst := 0.0 // the largest error seen, as a share of the bound
	check := func(x float64) {
		want := math.Log(x)
		bound := 0x1p-50 + 0x1p-51*math.Abs(want) + ulp(want)
		err := math.Abs(fastLog(x) - want)
		if err > bound {
			t.Fatalf("fastLog(%v) = %v, Log %v: error %.3g over the bound %.3g", x, fastLog(x), want, err, bound)
		}
		worst = max(worst, err/bound)
	}
	rng := rand.New(rand.NewPCG(15, 15))
	for i := 0; i < 1_000_000; i++ {
		check(1 - rng.Float64())
		check(math.Ldexp(1+rng.Float64(), -1-rng.IntN(53)))
	}
	for i := uint64(0); i <= 1<<logTableBits; i++ {
		b := logTableOff + i<<(52-logTableBits)
		for d := -2; d <= 2; d++ {
			if x := math.Float64frombits(b + uint64(d)); x <= 1 {
				check(x)
				check(x / 1024)
			}
		}
	}
	for j := 0; j < 1000; j++ {
		check(1 - float64(j)/(1<<53))
	}
	check(0x1p-53)
	t.Logf("largest error %.3g of the bound", worst)
}

func ulp(x float64) float64 {
	x = math.Abs(x)
	return math.Nextafter(x, math.Inf(1)) - x
}

// TestBinomialMatchesReference: Binomial and the per-size Visible draw the
// reference body's values from the same stream and leave it in the same
// state, across both branches and every probability the oracles cover.
func TestBinomialMatchesReference(t *testing.T) {
	calls := 20000
	if testing.Short() {
		calls = 500
	}
	for _, p := range skipProbs() {
		a, b := rand.New(rand.NewPCG(16, 16)), rand.New(rand.NewPCG(16, 16))
		lq := math.Log1p(-p)
		for _, n := range []uint64{1, 2, 10, 100, 5000, 1 << 20, 50 << 20} {
			for i := 0; i < calls; i++ {
				if got, want := binomialOf(n, p, a), refBinomial(n, p, lq, b); got != want {
					t.Fatalf("p %v n %d call %d: Binomial %d, reference %d", p, n, i, got, want)
				}
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("p %v: the two forms consumed different amounts of the stream", p)
		}
	}
	s, _ := NewSampler(AbileneRate, defaultMixSizes...)
	a, b := rand.New(rand.NewPCG(17, 17)), rand.New(rand.NewPCG(17, 17))
	for _, n := range defaultMixSizes {
		f := s.Size(n)
		pVis := f.vis.p
		for _, count := range []uint64{1, 3, 40, 400, 4000} {
			for i := 0; i < calls/10; i++ {
				if got, want := f.Visible(count, a), refBinomial(count, pVis, math.Log1p(-pVis), b); got != want {
					t.Fatalf("size %d count %d: Visible %d, reference %d", n, count, got, want)
				}
			}
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("Visible consumed a different amount of the stream")
	}
}

// poissonExactRan replays Poisson's products on a copy of the stream and
// reports whether one landed inside the knot bracket, i.e. whether Poisson
// evaluated Exp.
func poissonExactRan(lambda float64, pcg rand.PCG) bool {
	if !(lambda > 0 && lambda < 30) {
		return false
	}
	rng := rand.New(&pcg)
	j := int(lambda * expKnotsPerUnit)
	hi := expKnots[j] * (1 + expKnotErr)
	lo := expKnots[j+1] * (1 - expKnotErr)
	l := math.Exp(-lambda)
	for p := rng.Float64(); ; p *= rng.Float64() {
		if p <= lo {
			return false
		}
		if p <= hi {
			return true
		}
		if p <= l {
			panic("knot bracket does not contain exp(-lambda)")
		}
	}
}

// TestPoissonMatchesReference: Poisson returns the reference body's value
// and leaves the stream where it does, for lambda at every table knot and
// just below it, just below 30, and uniformly over (0, 30); it checks that
// every bracket contains exp(-lambda) and reports how often Exp ran.
func TestPoissonMatchesReference(t *testing.T) {
	reps := 400
	if testing.Short() {
		reps = 10
	}
	var lambdas []float64
	for j := 1; j <= 30*expKnotsPerUnit; j++ {
		knot := float64(j) / expKnotsPerUnit
		lambdas = append(lambdas, knot, math.Nextafter(knot, 0))
	}
	rng := rand.New(rand.NewPCG(18, 18))
	for i := 0; i < 2000; i++ {
		lambdas = append(lambdas, 30*rng.Float64())
	}
	lambdas = append(lambdas, math.Nextafter(30, 0), 30, 31, 1e-300, 0x1p-1074)
	var pa, pb rand.PCG
	pa.Seed(19, 19)
	pb.Seed(19, 19)
	a, b := rand.New(&pa), rand.New(&pb)
	var calls, exact int
	for _, lambda := range lambdas {
		if lambda > 0 && lambda < 30 {
			j := int(lambda * expKnotsPerUnit)
			if l := math.Exp(-lambda); !(expKnots[j+1]*(1-expKnotErr) <= l && l <= expKnots[j]*(1+expKnotErr)) {
				t.Fatalf("lambda %v: knots [%v, %v] miss exp(-lambda) = %v", lambda, expKnots[j+1], expKnots[j], l)
			}
		}
		for i := 0; i < reps; i++ {
			if poissonExactRan(lambda, pa) {
				exact++
			}
			calls++
			if got, want := Poisson(lambda, a), refPoisson(lambda, b); got != want {
				t.Fatalf("lambda %v draw %d: Poisson %d, reference %d", lambda, i, got, want)
			}
			if pa != pb {
				t.Fatalf("lambda %v draw %d: the two forms left the stream in different states", lambda, i)
			}
		}
	}
	t.Logf("%d Poisson draws, Exp evaluated in %d (%.3g)", calls, exact, float64(exact)/float64(calls))
}

// FuzzSkipMatchesReference drives the fast skip, Binomial, VisiblePackets
// and Poisson against the reference bodies from one draw's bits, an
// arbitrary success probability and an arbitrary Poisson mean.
func FuzzSkipMatchesReference(f *testing.F) {
	f.Add(uint64(0), AbileneRate, 0.5)
	f.Add(uint64(1)<<63, 0.0199, 29.999999999999996)
	f.Add(^uint64(0), 1-1e-12, 1.0/64)
	f.Add(uint64(12345), 1e-300, 7.0)
	f.Add(uint64(999), 1e-6, 0.0)
	f.Fuzz(func(t *testing.T, bits uint64, p, lambda float64) {
		if math.IsNaN(p) || math.IsInf(p, 0) || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
			return
		}
		p = math.Abs(p)
		p -= math.Floor(p)
		if p == 0 {
			return
		}
		g := newGeometric(p)
		u := float64(bits<<11>>11) / (1 << 53)
		checkSkip(t, &g, u)
		checkSkip(t, &g, float64(u*p))

		n := bits%5000 + 1
		a, b := rand.New(rand.NewPCG(bits, 1)), rand.New(rand.NewPCG(bits, 1))
		if got, want := binomialOf(n, p, a), refBinomial(n, p, g.lq, b); got != want {
			t.Fatalf("Binomial(%d, %v) = %d, reference %d", n, p, got, want)
		}
		s, _ := NewSampler(p)
		sz := s.Size(n)
		if got, want := s.VisiblePackets(&sz, a), refAtLeastOne(n, p, g.lq, sz.vis.p, b); got != want {
			t.Fatalf("VisiblePackets(%d) at rate %v = %d, reference %d", n, p, got, want)
		}
		lambda = math.Mod(math.Abs(lambda), 40)
		if got, want := Poisson(lambda, a), refPoisson(lambda, b); got != want {
			t.Fatalf("Poisson(%v) = %d, reference %d", lambda, got, want)
		}
		if a.Uint64() != b.Uint64() {
			t.Fatal("the fast and reference forms consumed different amounts of the stream")
		}
	})
}
