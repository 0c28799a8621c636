package identify

import (
	"math"
	"math/rand/v2"
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
