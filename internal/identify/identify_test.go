package identify

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"netwide/internal/engine"
	"netwide/internal/mat"
)

// attributeAll fits the model on every row of x, scores every row against
// it and attributes each alarm — Run.Detect's chain for one measure. It
// returns the attributions with each bin's residual under the fit.
func attributeAll(t *testing.T, x *mat.Matrix, opts engine.Options) ([]Attribution, map[int][]float64) {
	t.Helper()
	m, err := engine.Fit(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	var atts []Attribution
	residuals := map[int][]float64{}
	for bin := 0; bin < x.Rows(); bin++ {
		row := x.RowView(bin)
		pt, err := m.Score(row)
		if err != nil {
			t.Fatal(err)
		}
		a, err := AttributeLive(m, bin, row, pt)
		if err != nil {
			t.Fatal(err)
		}
		atts = append(atts, a...)
		_, residuals[bin], _ = m.Split(row)
	}
	return atts, residuals
}

// verify recomputes the SPE of a residual vector with the given OD flows
// removed.
func verify(residual []float64, remove []int) float64 {
	skip := map[int]bool{}
	for _, od := range remove {
		skip[od] = true
	}
	var spe float64
	for od, v := range residual {
		if !skip[od] {
			spe += v * v
		}
	}
	return spe
}

// buildSpiked attributes the alarms of low-rank traffic with known spikes.
func buildSpiked(t *testing.T, spikes map[int][]int, mag float64) ([]Attribution, map[int][]float64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(10, 20))
	n, p := 600, 10
	x := mat.New(n, p)
	for i := 0; i < n; i++ {
		base := 100 * (1 + 0.5*math.Sin(2*math.Pi*float64(i)/288))
		for j := 0; j < p; j++ {
			x.Set(i, j, base*float64(1+j%4)+rng.NormFloat64())
		}
	}
	for bin, ods := range spikes {
		for _, od := range ods {
			x.Set(bin, od, x.At(bin, od)+mag)
		}
	}
	return attributeAll(t, x, engine.DefaultOptions())
}

func TestAttributeSingleFlowSpike(t *testing.T) {
	atts, residuals := buildSpiked(t, map[int][]int{300: {4}}, 250)
	var found bool
	for _, a := range atts {
		if a.Alarm.Bin != 300 {
			continue
		}
		found = true
		if len(a.ODs) == 0 || a.ODs[0] != 4 {
			t.Fatalf("identified %v (stat %v), want flow 4 first", a.ODs, a.Alarm.Stat)
		}
		if a.Residuals[0] <= 0 {
			t.Fatalf("spike residual sign %v, want positive", a.Residuals[0])
		}
		if a.Alarm.Stat == engine.StatSPE {
			// Removing the identified set must bring SPE under the limit.
			if got := verify(residuals[300], a.ODs); got > a.Alarm.Limit {
				t.Fatalf("verification failed: %v > %v", got, a.Alarm.Limit)
			}
		}
	}
	if !found {
		t.Fatal("spike at bin 300 not alarmed")
	}
}

func TestAttributeMultiFlowSpike(t *testing.T) {
	// A spike shared by 3 flows. Depending on how much of the anomaly
	// direction PCA absorbs, the alarm is raised by SPE or by T² — the
	// paper's point about needing both statistics. Either way, the
	// identified set must cover the injected flows.
	atts, residuals := buildSpiked(t, map[int][]int{200: {2, 5, 7}}, 180)
	for _, a := range atts {
		if a.Alarm.Bin != 200 {
			continue
		}
		// The smallest-set procedure may stop after fewer flows than were
		// injected (removing one can suffice); what it must not do is
		// start from an uninvolved flow.
		injected := map[int]bool{2: true, 5: true, 7: true}
		if len(a.ODs) == 0 || !injected[a.ODs[0]] {
			t.Fatalf("multi-flow anomaly (%v): identified %v, want first from {2,5,7}", a.Alarm.Stat, a.ODs)
		}
		if a.Alarm.Stat == engine.StatSPE {
			if got := verify(residuals[200], a.ODs); got > a.Alarm.Limit {
				t.Fatalf("verification failed: %v > %v", got, a.Alarm.Limit)
			}
		}
		return
	}
	t.Fatal("spike at bin 200 not alarmed")
}

func TestAttributeDipSign(t *testing.T) {
	atts, _ := buildSpiked(t, map[int][]int{450: {3}}, -260)
	for _, a := range atts {
		if a.Alarm.Bin != 450 {
			continue
		}
		if a.ODs[0] != 3 {
			t.Fatalf("identified %v, want 3", a.ODs)
		}
		if a.Residuals[0] >= 0 {
			t.Fatalf("dip residual sign %v, want negative", a.Residuals[0])
		}
		return
	}
	t.Fatal("dip not alarmed")
}

func TestAttributeT2Alarm(t *testing.T) {
	// Build traffic where a huge common-mode shift lands in the normal
	// subspace (same construction as the engine T² test).
	rng := rand.New(rand.NewPCG(30, 40))
	n, p := 800, 8
	x := mat.New(n, p)
	dir := []float64{0.5, 0.4, 0.35, 0.3, 0.3, 0.3, 0.25, 0.25}
	for i := 0; i < n; i++ {
		f := 40 * math.Sin(2*math.Pi*float64(i)/288)
		for j := 0; j < p; j++ {
			x.Set(i, j, f*dir[j]+0.4*rng.NormFloat64())
		}
	}
	for j := 0; j < p; j++ {
		x.Set(333, j, x.At(333, j)+400*dir[j])
	}
	atts, _ := attributeAll(t, x, engine.Options{K: 2, Alpha: 0.001})
	for _, a := range atts {
		if a.Alarm.Bin == 333 && a.Alarm.Stat == engine.StatT2 {
			if len(a.ODs) == 0 {
				t.Fatal("T² attribution empty")
			}
			// Flow 0 has the largest loading, hence largest contribution.
			if a.ODs[0] != 0 {
				t.Fatalf("T² attribution picked %v first, want 0", a.ODs)
			}
			return
		}
	}
	t.Fatal("no T² alarm at bin 333")
}

func TestAttributionCapped(t *testing.T) {
	// A shift across every flow at once must stop at MaxODsPerAlarm.
	spikes := map[int][]int{100: {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}
	atts, _ := buildSpiked(t, spikes, 120)
	for _, a := range atts {
		if len(a.ODs) > MaxODsPerAlarm {
			t.Fatalf("attribution size %d exceeds cap", len(a.ODs))
		}
	}
}

func TestVerifyRemovesContribution(t *testing.T) {
	res := []float64{3, 4, 0}
	if got := verify(res, nil); got != 25 {
		t.Fatalf("verify no removal = %v", got)
	}
	if got := verify(res, []int{0}); got != 16 {
		t.Fatalf("verify remove 0 = %v", got)
	}
	if got := verify(res, []int{0, 1}); got != 0 {
		t.Fatalf("verify remove all = %v", got)
	}
}

// refSpeFlows and refT2Flows are speFlows and t2Flows as they were before
// the ranking kept only the flows the walk can reach and the T² scan
// stopped allocating per candidate: every contribution sorted by squared
// residual (ties in whatever order the sort leaves them), one fresh score
// slice per trial removal. Kept as the reference the fast ones must match.
func refSpeFlows(row []float64, value, limit float64) (ods []int, residuals []float64) {
	type contrib struct {
		od  int
		sq  float64
		val float64
	}
	cs := make([]contrib, len(row))
	for od, v := range row {
		cs[od] = contrib{od: od, sq: v * v, val: v}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].sq > cs[j].sq })
	remaining := value
	for _, c := range cs {
		if remaining <= limit || len(ods) >= MaxODsPerAlarm {
			break
		}
		ods = append(ods, c.od)
		residuals = append(residuals, c.val)
		remaining -= c.sq
	}
	if len(ods) == 0 && len(cs) > 0 {
		ods = append(ods, cs[0].od)
		residuals = append(residuals, cs[0].val)
	}
	return ods, residuals
}

func refT2Flows(pca *mat.PCA, k int, xc []float64, limit float64) (ods []int, residuals []float64) {
	p := pca.P()
	scores := make([]float64, k)
	for i := 0; i < k; i++ {
		for f := 0; f < p; f++ {
			scores[i] += xc[f] * pca.Components.At(f, i)
		}
	}
	t2 := func(s []float64) float64 {
		var v float64
		for i := 0; i < k; i++ {
			l := pca.Eigenvalues[i]
			if l <= 0 {
				continue
			}
			v += s[i] * s[i] / l
		}
		return v
	}
	removed := make([]bool, p)
	cur := t2(scores)
	for cur > limit && len(ods) < MaxODsPerAlarm {
		best, bestDrop := -1, 0.0
		var bestScores []float64
		for f := 0; f < p; f++ {
			if removed[f] {
				continue
			}
			trial := make([]float64, k)
			for i := 0; i < k; i++ {
				trial[i] = scores[i] - xc[f]*pca.Components.At(f, i)
			}
			drop := cur - t2(trial)
			if drop > bestDrop {
				best, bestDrop, bestScores = f, drop, trial
			}
		}
		if best < 0 {
			break
		}
		removed[best] = true
		ods = append(ods, best)
		residuals = append(residuals, xc[best])
		scores = bestScores
		cur = t2(scores)
	}
	if len(ods) == 0 {
		best, bestAbs := 0, 0.0
		for f := 0; f < p; f++ {
			v := xc[f]
			if v < 0 {
				v = -v
			}
			if v > bestAbs {
				best, bestAbs = f, v
			}
		}
		ods = append(ods, best)
		residuals = append(residuals, xc[best])
	}
	return ods, residuals
}

// randomRow draws a residual-like vector of width p in one of four shapes:
// plain Gaussian, all zero, a few values repeated with both signs (so
// squared residuals tie exactly across ODs), and one or two large spikes on
// a quiet background.
func randomRow(rng *rand.Rand, p int) []float64 {
	row := make([]float64, p)
	switch rng.IntN(4) {
	case 0:
		for i := range row {
			row[i] = rng.NormFloat64()
		}
	case 1:
	case 2:
		vals := []float64{0, 1.5, 3, 7.25}
		for i := range row {
			v := vals[rng.IntN(len(vals))]
			if rng.IntN(2) == 0 {
				v = -v
			}
			row[i] = v
		}
	case 3:
		for i := range row {
			row[i] = 0.1 * rng.NormFloat64()
		}
		for n := 1 + rng.IntN(2); n > 0; n-- {
			row[rng.IntN(p)] = 50 * rng.NormFloat64()
		}
	}
	return row
}

// TestSpeFlowsMatchesReference: random rows of widths on both sides of
// MaxODsPerAlarm, against limits the walk reaches early, late or never.
// Where no two flows tie, the attribution is the reference's, bit for bit.
// Where squared residuals tie, the reference's order among them is
// whatever its sort left; the fast one must give the same squared
// contributions position by position (so the same SPE walk), the same
// count, and among each tied value the lowest OD indexes in ascending
// order.
func TestSpeFlowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 4000; trial++ {
		p := 1 + rng.IntN(60)
		if rng.IntN(8) == 0 {
			p = 529
		}
		row := randomRow(rng, p)
		var spe float64
		for _, v := range row {
			spe += v * v
		}
		limit := spe * []float64{0, 0.01, 0.3, 0.9, 1, 2}[rng.IntN(6)]
		value := spe
		if rng.IntN(5) == 0 {
			value = limit + 1 // an alarm whose statistic is not the row's
		}
		ods, res := speFlows(row, value, limit)
		wantODs, wantRes := refSpeFlows(row, value, limit)
		what := fmt.Sprintf("trial %d (p=%d, value %v, limit %v)", trial, p, value, limit)
		if len(ods) != len(wantODs) || len(res) != len(ods) {
			t.Fatalf("%s: %d flows (%d residuals), reference %d", what, len(ods), len(res), len(wantODs))
		}
		for i, od := range ods {
			if res[i] != row[od] {
				t.Fatalf("%s: flow %d carries residual %v, its row value is %v", what, od, res[i], row[od])
			}
			if sq, want := res[i]*res[i], wantRes[i]*wantRes[i]; math.Float64bits(sq) != math.Float64bits(want) {
				t.Fatalf("%s: position %d removes %v, reference %v", what, i, sq, want)
			}
		}
		// Tie rule: among flows of one squared residual, the lowest ODs,
		// ascending.
		byValue := map[float64][]int{}
		for od, v := range row {
			byValue[v*v] = append(byValue[v*v], od)
		}
		seen := map[float64]int{}
		for i, od := range ods {
			sq := res[i] * res[i]
			if want := byValue[sq][seen[sq]]; od != want {
				t.Fatalf("%s: position %d is OD %d, tie rule wants OD %d (ODs %v, reference %v)", what, i, od, want, ods, wantODs)
			}
			seen[sq]++
			if len(byValue[sq]) == 1 && od != wantODs[i] {
				t.Fatalf("%s: untied position %d is OD %d, reference %d", what, i, od, wantODs[i])
			}
		}
	}
}

// TestT2FlowsMatchesReference: random models and centered vectors,
// zero and repeated-value vectors included. The T² scan already broke ties
// by the lower OD, so here the match is exact.
func TestT2FlowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 17))
	for trial := 0; trial < 400; trial++ {
		p := 2 + rng.IntN(40)
		k := 1 + rng.IntN(min(p, 5))
		comps := mat.New(p, k)
		for f := 0; f < p; f++ {
			for i := 0; i < k; i++ {
				comps.Set(f, i, rng.NormFloat64()/math.Sqrt(float64(p)))
			}
		}
		eig := make([]float64, k)
		for i := range eig {
			eig[i] = float64(k-i) + rng.Float64()
		}
		if rng.IntN(6) == 0 {
			eig[k-1] = 0 // an axis the statistic skips
		}
		pca, err := mat.NewPCA(make([]float64, p), eig, comps, 2*float64(k), 1000)
		if err != nil {
			t.Fatal(err)
		}
		xc := randomRow(rng, p)
		limit := []float64{0, 0.5, 5, 1e9}[rng.IntN(4)]
		ods, res := t2Flows(pca, k, xc, limit)
		wantODs, wantRes := refT2Flows(pca, k, xc, limit)
		if !slices.Equal(ods, wantODs) || !slices.EqualFunc(res, wantRes, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			t.Fatalf("trial %d (p=%d k=%d limit %v): (%v, %v), reference (%v, %v)", trial, p, k, limit, ods, res, wantODs, wantRes)
		}
	}
}
