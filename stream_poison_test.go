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
	"math"
	"strings"
	"testing"

	"netwide"
	"netwide/internal/dataset"
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

// TestSubmitRejectsNonRestorableValues: one NaN, infinite or absurd value
// in a submitted bin used to stall a lane's lifecycle — under refit every
// refit failed while it sat in the window, under incremental the tracker's
// mean stayed non-finite for good. Submit now refuses such a bin with the
// predicate a restore applies, and the detector carries on as if it had
// never been offered: the clean bin is accepted in its place, no update
// fails, and every lane has absorbed the same bins.
func TestSubmitRejectsNonRestorableValues(t *testing.T) {
	run := quickRun(t)
	ds := run.Dataset()
	const train, poisonBin, end = 1000, 1050, 1200
	for name, cfg := range map[string]netwide.StreamConfig{
		"refit":       {TrainBins: train, RefitEvery: 50, Window: 600},
		"incremental": {TrainBins: train, Updater: "incremental"},
	} {
		t.Run(name, func(t *testing.T) {
			det, err := run.NewStreamDetector(netwide.DefaultDetectOptions(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan int)
			go func() {
				n := 0
				for range det.Verdicts() {
					n++
				}
				done <- n
			}()
			row := func(m dataset.Measure, bin int) []float64 { return ds.Matrix(m).RowView(bin) }
			for bin := train; bin < end; bin++ {
				if bin == poisonBin {
					for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e101} {
						bytes := append([]float64(nil), row(dataset.Bytes, bin)...)
						bytes[7] = bad
						err := det.Submit(bin, bytes, row(dataset.Packets, bin), row(dataset.Flows, bin))
						if err == nil || !strings.Contains(err.Error(), "bin 1050") {
							t.Fatalf("Submit of %v in bin %d = %v, want a refusal naming the bin", bad, bin, err)
						}
					}
				}
				if err := det.Submit(bin, row(dataset.Bytes, bin), row(dataset.Packets, bin), row(dataset.Flows, bin)); err != nil {
					t.Fatal(err)
				}
			}
			det.Close()
			if n := <-done; n != end-train {
				t.Fatalf("%d verdicts, want %d", n, end-train)
			}
			if err := det.Wait(); err != nil {
				t.Fatalf("Wait() = %v after the refused bins", err)
			}
			fr := det.Freshness()
			for m := range fr {
				if fr[m] != fr[dataset.Packets] {
					t.Errorf("measure %d freshness %+v, packets lane %+v", m, fr[m], fr[dataset.Packets])
				}
			}
			if cfg.Updater == "incremental" && (fr[dataset.Bytes].Updates != end-train || fr[dataset.Bytes].Staleness != 1) {
				t.Errorf("bytes lane freshness %+v, want %d updates and staleness 1", fr[dataset.Bytes], end-train)
			}
		})
	}
}
