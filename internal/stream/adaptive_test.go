package stream

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"netwide/internal/engine"
)

// Load-adaptive batching: a lane scores what it holds as soon as its queue
// is empty and fills whole batches only under backlog. These tests pin
// both halves, and that the verdicts do not depend on where the batch
// boundaries fall.

// TestLockstepVerdicts is the live contract at the default batch size: a
// caller that submits bin B and waits for bin B's verdict before
// submitting B+1 gets it, every time, under the static and the refit
// lifecycle. With a fixed batch the first wait never returns.
func TestLockstepVerdicts(t *testing.T) {
	for name, cfg := range map[string]Config{
		"static": {},
		"refit":  {RefitEvery: 20, Window: 60},
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(71, 72))
			const p, lanes, n = 8, 3, 200
			models := make([]*engine.Model, lanes)
			for i := range models {
				models[i] = fitLane(t, rng, 200, p)
			}
			pipe, err := New(models, cfg)
			if err != nil {
				t.Fatal(err)
			}
			live := synth(rand.New(rand.NewPCG(73, 74)), n, p, 2)
			verdicts := make(chan Verdict)
			go func() {
				for v := range pipe.Verdicts() {
					verdicts <- v
				}
				close(verdicts)
			}()
			timeout := time.NewTimer(30 * time.Second)
			defer timeout.Stop()
			for bin := 0; bin < n; bin++ {
				vecs := make([][]float64, lanes)
				for l := range vecs {
					vecs[l] = live.Row(bin)
				}
				if err := pipe.Submit(Sample{Bin: bin, Vecs: vecs}); err != nil {
					t.Fatal(err)
				}
				select {
				case v := <-verdicts:
					if v.Bin != bin {
						t.Fatalf("lockstep got bin %d, want %d", v.Bin, bin)
					}
				case <-timeout.C:
					t.Fatalf("no verdict for bin %d: the lane is waiting for later bins", bin)
				}
			}
			pipe.Close()
			for range verdicts {
				t.Fatal("verdict after the last lockstep bin")
			}
			if err := pipe.Wait(); err != nil {
				t.Fatal(err)
			}
			for l, g := range pipe.Generations() {
				if cfg.RefitEvery > 0 && g == 0 {
					t.Fatalf("lane %d never refitted: the refit lifecycle was not exercised", l)
				}
			}
		})
	}
}

// TestAdaptiveBatchFillsUnderBacklog: with work queued behind it the lane
// still hands ScoreBatch full BatchSize-row batches. The lane is held at
// its first (single-bin) flush through batchHook while its queue is filled
// to within 11 bins of its depth, nothing consumes verdicts meanwhile, and
// the batch sizes that follow are exact: whole batches while the queue
// lasts, the remainder when it runs dry.
func TestAdaptiveBatchFillsUnderBacklog(t *testing.T) {
	const p, batch = 8, 16
	backlog := depthPerBatch*batch - 11 // 9 whole batches and a remainder of 5
	var sizes []int                     // lane goroutine only, read after Wait
	held, release := make(chan struct{}), make(chan struct{})
	batchHook = func(n int) {
		if sizes = append(sizes, n); len(sizes) == 1 {
			close(held)
			<-release
		}
	}
	defer func() { batchHook = nil }()

	model := fitLane(t, rand.New(rand.NewPCG(81, 82)), 200, p)
	pipe, err := New([]*engine.Model{model}, Config{BatchSize: batch})
	if err != nil {
		t.Fatal(err)
	}
	live := synth(rand.New(rand.NewPCG(83, 84)), 1+backlog, p, 2)
	for bin := 0; bin < 1+backlog; bin++ {
		if bin == 1 {
			<-held // bin 0 found the queue empty and is being scored alone
		}
		if err := pipe.Submit(Sample{Bin: bin, Vecs: [][]float64{live.Row(bin)}}); err != nil {
			t.Fatal(err)
		}
	}
	if q := len(pipe.lanes[0].in); q != backlog { // Submit sends straight to the lane
		t.Fatalf("lane queue holds %d bins, want %d", q, backlog)
	}
	close(release)
	pipe.Close()
	n := 0
	for v := range pipe.Verdicts() {
		if v.Bin != n {
			t.Fatalf("verdict %d has bin %d", n, v.Bin)
		}
		n++
	}
	if err := pipe.Wait(); err != nil {
		t.Fatal(err)
	}
	want := []int{1}
	for range backlog / batch {
		want = append(want, batch)
	}
	want = append(want, backlog%batch)
	if !slices.Equal(sizes, want) {
		t.Fatalf("batch sizes %v, want %v", sizes, want)
	}
}

// TestAdaptiveBatchVerdictsIndependentOfBatchSize: ScoreBatch is row-wise,
// so a static model's verdicts are bit-identical whatever BatchSize is and
// wherever the adaptive flush happens to cut the batches.
func TestAdaptiveBatchVerdictsIndependentOfBatchSize(t *testing.T) {
	const p, lanes, n = 8, 3, 400
	rng := rand.New(rand.NewPCG(91, 92))
	models := make([]*engine.Model, lanes)
	for i := range models {
		models[i] = fitLane(t, rng, 300, p)
	}
	live := synth(rand.New(rand.NewPCG(93, 94)), n, p, 6) // noisy enough to alarm
	var ref []Verdict
	for _, size := range []int{1, 7, 16} {
		pipe, err := New(models, Config{BatchSize: size})
		if err != nil {
			t.Fatal(err)
		}
		got := feed(t, pipe, live, lanes, n)
		if len(got) != n {
			t.Fatalf("BatchSize %d: %d verdicts, want %d", size, len(got), n)
		}
		if ref == nil {
			ref = got
			alarms := 0
			for _, v := range ref {
				if v.Alarm() {
					alarms++
				}
			}
			if alarms == 0 {
				t.Fatal("no bin alarmed: the comparison would not cover attribution")
			}
			continue
		}
		for i := range got {
			for l := 0; l < lanes; l++ {
				if got[i].Points[l] != ref[i].Points[l] {
					t.Fatalf("BatchSize %d bin %d lane %d: %+v, BatchSize 1 scored %+v", size, i, l, got[i].Points[l], ref[i].Points[l])
				}
				if len(got[i].Attribs[l]) != len(ref[i].Attribs[l]) {
					t.Fatalf("BatchSize %d bin %d lane %d: %d attributions, BatchSize 1 made %d", size, i, l, len(got[i].Attribs[l]), len(ref[i].Attribs[l]))
				}
			}
		}
	}
}
