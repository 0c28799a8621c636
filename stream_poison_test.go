package netwide_test

// Refit-window contamination: an attacker who can pin the traffic the
// StreamDetector absorbs into its rolling refit window controls the next
// model generation. The worst case — every window row identical — leaves
// the centered window with no residual variance at all, so the refit's
// Q-threshold computation must reject the degenerate spectrum rather
// than swap in a model that alarms on everything (or nothing). This test
// drives that path end to end through the public API and pins the
// degraded-state contract: RefitErr reports the poisoning, Err stays
// nil, scoring continues on the previous generation, and the verdict
// stream is complete and ordered.

import (
	"strings"
	"testing"

	"netwide"
)

func TestStreamRefitPoisonedWindowDegrades(t *testing.T) {
	cfg := netwide.QuickConfig()
	cfg.Topology = "synthetic:6" // small backbone keeps the fit cheap
	cfg.Seed = 11
	run, err := netwide.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := run.Dataset().NumODPairs()
	det, err := run.NewStreamDetector(netwide.DefaultDetectOptions(), netwide.StreamConfig{
		TrainBins:  288,
		BatchSize:  1,
		RefitEvery: 16,
		Window:     p + 8,
	})
	if err != nil {
		t.Fatal(err)
	}

	type drained struct {
		count   int
		ordered bool
	}
	done := make(chan drained)
	go func() {
		d := drained{ordered: true}
		last := -1
		for v := range det.Verdicts() {
			if v.Bin < last {
				d.ordered = false
			}
			last = v.Bin
			d.count++
		}
		done <- d
	}()

	// Feed identical bins until the window is pure poison and a refit on
	// it has failed. The lanes run behind Submit, so poll RefitErr rather
	// than counting bins; the cap only bounds a broken run.
	const maxPoison = 20000
	submitted := 0
	for bin := 0; bin < maxPoison && det.RefitErr() == nil; bin++ {
		bytes := make([]float64, p)
		packets := make([]float64, p)
		flows := make([]float64, p)
		for j := 0; j < p; j++ {
			bytes[j], packets[j], flows[j] = 1e6, 1e3, 50
		}
		if err := det.Submit(bin, bytes, packets, flows); err != nil {
			t.Fatal(err)
		}
		submitted++
	}
	det.Close()
	d := <-done
	waitErr := det.Wait()

	refitErr := det.RefitErr()
	if refitErr == nil {
		t.Fatalf("poisoned refit window never surfaced on RefitErr after %d bins", submitted)
	}
	if !strings.Contains(refitErr.Error(), "degenerate residual spectrum") {
		t.Fatalf("RefitErr = %v, want the degenerate-spectrum rejection", refitErr)
	}
	if err := det.Err(); err != nil {
		t.Fatalf("refit poisoning leaked into the fatal Err(): %v", err)
	}
	if waitErr == nil || !strings.Contains(waitErr.Error(), "refit") {
		t.Fatalf("Wait() = %v, want the refit failure", waitErr)
	}
	// Degraded, not dead: every submitted bin was scored, in order, on a
	// surviving model generation.
	if d.count != submitted {
		t.Fatalf("verdict stream delivered %d of %d submitted bins", d.count, submitted)
	}
	if !d.ordered {
		t.Fatal("verdict stream out of order under refit failure")
	}
}
