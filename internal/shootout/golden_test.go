package shootout_test

// Golden ROC fixtures: every detector's quality numbers on the
// deterministic six-class scenario and the four adversarial scenarios are
// pinned byte-for-byte. A change that shifts any detector's ROC, latency
// or attribution — for better or worse — fails here and must regenerate
// the fixtures with
//
//	go test ./internal/shootout/ -run TestGolden -update
//
// and justify the diff in review. The degradation tests below the golden
// comparison are executable documentation of the adversarial results: the
// subspace detector is demonstrably degraded on the stealth-DDoS scenario
// (residual dilution) and its refitting variant on the poisoning scenario
// (threshold inflation through a contaminated refit window).

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"netwide/internal/dataset"
	"netwide/internal/engine"
	"netwide/internal/sampling"
	"netwide/internal/scenario"
	"netwide/internal/shootout"
)

var update = flag.Bool("update", false, "rewrite the golden fixtures")

// trainBins is the first full week of a quick two-week run. A full week
// matters: the background has a weekday/weekend factor, and a model
// trained on weekdays only spends the whole weekend in alarm. Every
// fixture scenario schedules its episodes in week two.
const trainBins = 2016

// roster builds the contestants. Fresh instances per run: detectors are
// stateful across Run only via recorded errors, but fixtures must never
// depend on a previous scenario's run.
func roster() []shootout.Detector {
	return []shootout.Detector{
		&shootout.Subspace{},
		// Window 288 > 121 OD pairs keeps the engine on the full-PCA path;
		// the cadence refits twice a day, the regime the contamination
		// scenario poisons.
		&shootout.Subspace{RefitEvery: 144, Window: 288},
		// The per-bin lifecycle on the same 288-bin horizon, no periodic
		// corrections: the tracker forgets exponentially instead of
		// swallowing whole windows at refit boundaries.
		&shootout.Subspace{Updater: engine.UpdaterIncremental, Window: 288},
		&shootout.Empirical{},
		&shootout.EWMA{},
	}
}

var scenarioNames = []string{
	"six-classes-eval", "stealth-ddos", "coordinated", "slow-ramp", "poison",
}

var (
	reportsOnce sync.Once
	reports     map[string]shootout.Report
	reportsErr  error
)

// reportFor lazily runs every fixture scenario through the full pipeline
// and the whole roster, once per test binary — the degradation tests read
// the same reports the golden comparison pins.
func reportFor(t *testing.T, name string) shootout.Report {
	t.Helper()
	reportsOnce.Do(func() {
		reports = make(map[string]shootout.Report, len(scenarioNames))
		for _, n := range scenarioNames {
			scen, err := scenario.LoadFile(filepath.Join("testdata", n+".json"))
			if err != nil {
				reportsErr = err
				return
			}
			ds, err := dataset.Generate(dataset.Config{
				Weeks: 2, Seed: 2004, MeanRateBps: 8e5,
				SamplingRate:       sampling.AbileneRate,
				UnresolvedFraction: 0.07,
				Scenario:           scen,
			})
			if err != nil {
				reportsErr = err
				return
			}
			ms, err := shootout.RunAll(ds, roster(), trainBins)
			if err != nil {
				reportsErr = err
				return
			}
			reports[n] = shootout.NewReport(n, trainBins, ms)
		}
	})
	if reportsErr != nil {
		t.Fatal(reportsErr)
	}
	return reports[name]
}

func TestGoldenFixtures(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline runs over five scenarios")
	}
	for _, name := range scenarioNames {
		t.Run(name, func(t *testing.T) {
			r := reportFor(t, name)
			var buf bytes.Buffer
			if err := r.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", "golden", name+".json"), buf.Bytes())
			// The text table rides along as the human-readable face of the
			// same numbers.
			checkGolden(t, filepath.Join("testdata", "golden", name+".txt"), []byte(r.String()))
		})
	}
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from the golden fixture.\n--- got ---\n%s\n--- want ---\n%s\nIf the change is intended, regenerate with -update and justify the diff.",
			path, got, want)
	}
}

// metricsOf pulls one detector's scorecard out of a report.
func metricsOf(t *testing.T, r shootout.Report, detector string) shootout.Metrics {
	t.Helper()
	for _, m := range r.Detectors {
		if m.Detector == detector {
			return m
		}
	}
	t.Fatalf("report %s has no detector %q", r.Scenario, detector)
	return shootout.Metrics{}
}

// tprAtCap reads the ROC sweep's TPR at one of the fixed FPR caps. The
// degradation tests compare detectors at matched false-alarm cost through
// the sweep, not at the native thresholds: the generator's sampled traffic
// is heavy-tailed enough that the nominal-alpha thresholds run at a much
// higher bin-level FPR than alpha (documented in the golden fixtures), so
// native-alarm comparisons would mostly compare threshold miscalibration.
func tprAtCap(t *testing.T, m shootout.Metrics, cap float64) float64 {
	t.Helper()
	for _, pt := range m.ROC {
		if pt.FPR == cap {
			return pt.TPR
		}
	}
	t.Fatalf("detector %s has no ROC point at FPR cap %v", m.Detector, cap)
	return 0
}

// TestSubspaceCatchesOvertClasses anchors the baseline the degradation
// tests are measured against: on the overt six-class scenario the static
// subspace detector finds every episode, and its score separates the
// anomalous bins at tiny false-alarm cost.
func TestSubspaceCatchesOvertClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	m := metricsOf(t, reportFor(t, "six-classes-eval"), "subspace")
	if m.EpisodesDetected < m.EpisodesTotal {
		t.Errorf("static subspace detected %d/%d overt episodes; the degradation tests assume it catches all of them",
			m.EpisodesDetected, m.EpisodesTotal)
	}
	if tpr := tprAtCap(t, m, 0.01); tpr < 0.9 {
		t.Errorf("static subspace TPR at FPR<=0.01 is %v on overt classes, want >= 0.9", tpr)
	}
}

// TestStealthDDOSDegradesSubspace documents the residual-dilution attack:
// the same flow budget that an overt DDoS concentrates on a few OD pairs
// is spread across a wide origin fan, so no per-flow residual stands out
// and the subspace score of attack bins drops into the clean-bin range.
// The degradation is relative to the detector's own overt performance
// (TestSubspaceCatchesOvertClasses): same method, same traffic floor,
// evasively shaped episodes.
func TestStealthDDOSDegradesSubspace(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	r := reportFor(t, "stealth-ddos")
	sub := metricsOf(t, r, "subspace")
	if tpr := tprAtCap(t, sub, 0.05); tpr > 0.2 {
		t.Errorf("subspace TPR at FPR<=0.05 is %v on stealth traffic; the scenario no longer demonstrates evasion (want <= 0.2)", tpr)
	}
	if sub.EpisodesDetected == sub.EpisodesTotal {
		t.Errorf("subspace natively detected all %d stealth episodes; the scenario no longer demonstrates evasion",
			sub.EpisodesTotal)
	}
}

// TestIncrementalTracksOvertClasses: the per-bin lifecycle must not trade
// detection quality for freshness on overt anomalies — on the six-class
// scenario it catches and attributes every episode, and its bin-level
// separability stays close to the static model's (golden: AUC 0.9891 vs
// 1.0000 static, well above the refit variant's 0.9156).
func TestIncrementalTracksOvertClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	m := metricsOf(t, reportFor(t, "six-classes-eval"), "subspace-incremental")
	if m.EpisodesDetected < m.EpisodesTotal {
		t.Errorf("incremental lifecycle detected %d/%d overt episodes, want all", m.EpisodesDetected, m.EpisodesTotal)
	}
	if m.AUC < 0.95 {
		t.Errorf("incremental lifecycle AUC %v on overt classes, want >= 0.95", m.AUC)
	}
}

// TestIncrementalNoWorseThanRefitUnderPoison is the contamination-parity
// bound: the per-bin lifecycle absorbs the poisoned bins gradually (an
// exponential forgetting scheme) where the refit variant swallows whole
// contaminated windows, so under the poisoning attack its bin-level
// separability must degrade no worse than the refit variant pinned by
// TestPoisonDegradesRefit (golden: incremental AUC 0.7202 vs refit
// 0.7137), and it must still catch the post-poisoning DDoS.
func TestIncrementalNoWorseThanRefitUnderPoison(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	r := reportFor(t, "poison")
	refit := metricsOf(t, r, "subspace-refit")
	incr := metricsOf(t, r, "subspace-incremental")
	if incr.AUC < refit.AUC-0.01 {
		t.Errorf("poisoned incremental AUC %v vs refit %v; per-bin updates degrade worse than generation swaps", incr.AUC, refit.AUC)
	}
	if incr.EpisodesDetected < incr.EpisodesTotal {
		t.Errorf("poisoned incremental detected %d/%d episodes, want all (the overt DDoS must survive the contamination)",
			incr.EpisodesDetected, incr.EpisodesTotal)
	}
}

// TestPoisonDegradesRefit documents the training-contamination attack: a
// sustained modest boost absorbed into the rolling refit windows inflates
// the refitted model's thresholds and bends its subspace toward the
// contaminated directions, so the refitting variant separates the overt
// post-poisoning DDoS from clean traffic far worse than the static model
// fitted before the contamination began.
func TestPoisonDegradesRefit(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	r := reportFor(t, "poison")
	static := metricsOf(t, r, "subspace")
	refit := metricsOf(t, r, "subspace-refit")
	st, rt := tprAtCap(t, static, 0.01), tprAtCap(t, refit, 0.01)
	if rt > st-0.25 {
		t.Errorf("poisoned refit TPR at FPR<=0.01 is %v vs static %v; refit poisoning no longer demonstrated (want a gap >= 0.25)", rt, st)
	}
	if refit.AUC > static.AUC-0.1 {
		t.Errorf("poisoned refit AUC %v vs static %v; refit poisoning no longer demonstrated (want a gap >= 0.1)", refit.AUC, static.AUC)
	}
}
