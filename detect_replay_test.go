package netwide_test

import (
	"math"
	"sort"
	"testing"

	"netwide"
)

// TestDetectIsReplay: Run.Detect is the streaming chain applied to the
// whole run, so a StreamDetector trained on every bin (no refits) and
// replayed over the run must reproduce it bit for bit — every bin's SPE
// and T² and every characterized anomaly — on the full-PCA path (abilene)
// and the partial one (geant, synthetic:20, and synthetic:50 where p > n).
func TestDetectIsReplay(t *testing.T) {
	topos := []string{"abilene", "geant", "synthetic:20"}
	if !testing.Short() {
		topos = append(topos, "synthetic:50")
	}
	for _, topo := range topos {
		t.Run(topo, func(t *testing.T) {
			cfg := netwide.QuickConfig()
			cfg.Topology = topo
			run, err := netwide.Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := run.Detect(netwide.DefaultDetectOptions()); err != nil {
				t.Fatal(err)
			}
			series, err := run.Figure1(0, run.Bins())
			if err != nil {
				t.Fatal(err)
			}
			det, err := run.NewStreamDetector(netwide.DefaultDetectOptions(), netwide.StreamConfig{
				TrainBins: run.Bins(),
				BatchSize: 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			verdicts, err := det.Replay(0, run.Bins())
			if err != nil {
				if det.Err() != nil {
					t.Fatal(err)
				}
				// A fit that stopped at the sweep cap (synthetic:50) degrades
				// the pipeline and still scores; Detect scores with the same
				// model.
				t.Logf("degraded: %v", err)
			}
			if len(verdicts) != run.Bins() {
				t.Fatalf("replay returned %d verdicts for %d bins", len(verdicts), run.Bins())
			}
			var streamed []netwide.Anomaly
			alarms := 0
			for bin, v := range verdicts {
				streamed = append(streamed, v.Anomalies...)
				for m, s := range series {
					pt := v.Points[m]
					if math.Float64bits(pt.SPE) != math.Float64bits(s.SPE[bin]) ||
						math.Float64bits(pt.T2) != math.Float64bits(s.T2[bin]) {
						t.Fatalf("%s bin %d: replay (SPE %v, T2 %v), Detect (%v, %v)", s.Measure, bin, pt.SPE, pt.T2, s.SPE[bin], s.T2[bin])
					}
					if pt.SPEAlarm != (s.SPE[bin] > s.QLimit) || pt.T2Alarm != (s.T2[bin] > s.T2Limit) {
						t.Fatalf("%s bin %d: replay alarms (%v, %v) disagree with Detect's limits", s.Measure, bin, pt.SPEAlarm, pt.T2Alarm)
					}
					if pt.SPEAlarm || pt.T2Alarm {
						alarms++
					}
				}
			}
			batch := run.Characterize()
			if len(streamed) != len(batch) {
				t.Fatalf("replay characterized %d anomalies, Detect %d", len(streamed), len(batch))
			}
			bk := make([]string, len(batch))
			sk := make([]string, len(streamed))
			for i := range batch {
				bk[i], sk[i] = anomalyKey(batch[i]), anomalyKey(streamed[i])
			}
			sort.Strings(bk)
			sort.Strings(sk)
			for i := range bk {
				if bk[i] != sk[i] {
					t.Fatalf("anomaly %d differs:\n Detect %s\n replay %s", i, bk[i], sk[i])
				}
			}
			t.Logf("%s: %d alarms, %d anomalies identical", topo, alarms, len(batch))
		})
	}
}
