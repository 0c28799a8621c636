package netwide_test

// Streaming characterization parity: replaying a run through the
// StreamDetector with the model trained on the full run must reproduce the
// batch Detect + Characterize output exactly — same events, same classes,
// same OD sets — because both paths share one internal/engine fit, one
// identification implementation and one classifier. The scenario engine's
// six-class plan makes the check cover every episode class end to end at
// streaming time.

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"netwide"
	"netwide/internal/scenario"
)

// anomalyKey flattens the fields both paths must agree on.
func anomalyKey(a netwide.Anomaly) string {
	return fmt.Sprintf("%s|%s|%d-%d|%v|%s|%s", a.Class, a.Measures, a.StartBin, a.EndBin, a.ODs, a.Truth, a.TruthType)
}

func TestStreamCharacterizeMatchesBatch(t *testing.T) {
	scen, err := scenario.FromJSON([]byte(scenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	cfg := netwide.QuickConfig()
	cfg.Scenario = scen
	run, err := netwide.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Batch path: full-matrix analysis, aggregation, classification.
	if err := run.Detect(netwide.DefaultDetectOptions()); err != nil {
		t.Fatal(err)
	}
	batch := run.Characterize()

	// Stream path: same model (trained on every bin, no refits), the whole
	// run replayed through the concurrent pipeline with live attribution,
	// incremental aggregation and classification at event close.
	det, err := run.NewStreamDetector(netwide.DefaultDetectOptions(), netwide.StreamConfig{
		TrainBins: run.Bins(),
		BatchSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	verdicts, err := det.Replay(0, run.Bins())
	if err != nil {
		t.Fatal(err)
	}
	var streamed []netwide.Anomaly
	for i, v := range verdicts {
		streamed = append(streamed, v.Anomalies...)
		if i == len(verdicts)-1 {
			// The final verdict additionally carries the flushed tail —
			// events still open at stream end, whose windows may reach the
			// final bin itself — folded in by Replay.
			continue
		}
		for _, a := range v.Anomalies {
			// Mid-stream, an anomaly must close only after its window can
			// no longer extend.
			if v.Bin <= a.EndBin {
				t.Errorf("anomaly [%d,%d] emitted at bin %d, before it could close", a.StartBin, a.EndBin, v.Bin)
			}
		}
	}

	if len(streamed) != len(batch) {
		t.Fatalf("stream characterized %d anomalies, batch %d", len(streamed), len(batch))
	}
	bk := make([]string, len(batch))
	sk := make([]string, len(streamed))
	for i := range batch {
		bk[i] = anomalyKey(batch[i])
		sk[i] = anomalyKey(streamed[i])
	}
	sort.Strings(bk)
	sort.Strings(sk)
	for i := range bk {
		if bk[i] != sk[i] {
			t.Errorf("anomaly %d differs:\n batch  %s\n stream %s", i, bk[i], sk[i])
		}
	}

	// Every injected episode class recovered by the batch path must also be
	// recovered at streaming time.
	batchClasses := map[string]bool{}
	streamClasses := map[string]bool{}
	for _, a := range batch {
		if a.TruthType != "" {
			batchClasses[a.TruthType] = true
		}
	}
	for _, a := range streamed {
		if a.TruthType != "" {
			streamClasses[a.TruthType] = true
		}
	}
	for _, class := range []string{"DDOS", "SCAN", "FLASH", "ALPHA", "OUTAGE", "WORM"} {
		if !batchClasses[class] {
			t.Errorf("batch path lost the %s episode (matched: %v)", class, batchClasses)
		}
		if !streamClasses[class] {
			t.Errorf("stream path did not recover the %s episode (matched: %v)", class, streamClasses)
		}
	}
}

// TestStreamCharacterizeWithRefits is the operational mode: train on the
// first half, refit nightly, replay the second half. Thresholds drift with
// the refits so exact batch parity no longer holds, but the chain must
// still produce classified, ground-truth-matched anomalies and close them
// as the aggregator promises: an event closes on the first verdict past
// the bin that could have extended it, so verdict B carries only events
// with EndBin <= B-2, and EndBin never decreases along the stream. (Start
// bins promise nothing: [1490,1490] and [1490,1491] on different OD sets
// close one verdict apart, in that order.)
func TestStreamCharacterizeWithRefits(t *testing.T) {
	run := quickRun(t)
	half := run.Bins() / 2
	det, err := run.NewStreamDetector(netwide.DefaultDetectOptions(), netwide.StreamConfig{
		TrainBins:  half,
		BatchSize:  16,
		RefitEvery: 288,
		Window:     half,
	})
	if err != nil {
		t.Fatal(err)
	}
	verdicts, err := det.Replay(half, run.Bins())
	if err != nil {
		t.Fatal(err)
	}
	for m, fr := range det.Freshness() {
		if fr.Gen == 0 {
			t.Errorf("measure %d never refitted over %d bins with RefitEvery=288", m, half)
		}
	}
	matched := 0
	total := 0
	lastEnd := -1
	for i, v := range verdicts {
		// Replay folds the tail flush — events still open at stream end —
		// onto the last verdict; those close where the stream stops.
		tail := i == len(verdicts)-1
		for _, a := range v.Anomalies {
			total++
			if !tail && (a.EndBin > v.Bin-2 || a.EndBin < lastEnd) {
				t.Errorf("anomaly [%d,%d] closed out of order on verdict %d (previous close ended at %d)", a.StartBin, a.EndBin, v.Bin, lastEnd)
			}
			lastEnd = max(lastEnd, a.EndBin)
			if a.Truth != "" {
				matched++
			}
			if a.Class == "" || a.Measures == "" {
				t.Errorf("uncharacterized anomaly: %+v", a)
			}
		}
	}
	if total == 0 {
		t.Fatal("no anomalies characterized over half a week of streaming")
	}
	if matched == 0 {
		t.Fatal("no streamed anomaly matched injected ground truth")
	}
}

// TestStreamLockstepConsumer pins the live contract: a consumer that
// submits bin B and waits for bin B's verdict before submitting B+1 must
// never block — verdicts are forwarded as soon as they are characterized,
// with no lookahead buffering. Anomalies still open at Close surface via
// TailAnomalies.
func TestStreamLockstepConsumer(t *testing.T) {
	run := quickRun(t)
	det, err := run.NewStreamDetector(netwide.DefaultDetectOptions(), netwide.StreamConfig{
		TrainBins: run.Bins(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Verdicts is a sequence, not a channel: a collector relays it so the
	// wait for each verdict can time out.
	verdicts := make(chan netwide.StreamVerdict)
	go func() {
		for v := range det.Verdicts() {
			verdicts <- v
		}
		close(verdicts)
	}()
	ds := run.Dataset()
	for bin := 0; bin < 32; bin++ {
		if err := det.Submit(bin, ds.Matrix(0).RowView(bin), ds.Matrix(1).RowView(bin), ds.Matrix(2).RowView(bin)); err != nil {
			t.Fatal(err)
		}
		select {
		case v := <-verdicts:
			if v.Bin != bin {
				t.Fatalf("lockstep got bin %d, want %d", v.Bin, bin)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("lockstep consumer blocked waiting for bin %d's verdict", bin)
		}
	}
	// The time-order contract is enforced at the edge, not by a panic in a
	// background goroutine: an out-of-order bin is an error.
	if err := det.Submit(5, ds.Matrix(0).RowView(5), ds.Matrix(1).RowView(5), ds.Matrix(2).RowView(5)); err == nil {
		t.Fatal("out-of-order bin accepted")
	}
	det.Close()
	for range verdicts {
	}
	if err := det.Wait(); err != nil {
		t.Fatal(err)
	}
	if det.TailAnomalies() == nil {
		// Not fatal — 32 clean bins may legitimately close everything —
		// but the accessor must at least be safe to call after drain.
		t.Log("no tail anomalies after 32 bins")
	}
}
