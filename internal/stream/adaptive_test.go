package stream

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"

	"netwide/internal/engine"
	"netwide/internal/identify"
	"netwide/internal/mat"
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
			for l, fr := range pipe.Freshness() {
				if cfg.RefitEvery > 0 && fr.Gen == 0 {
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

// TestAdaptiveBatchVerdictsIndependentOfBatchSize: a lane's verdicts are
// a function of its input alone — bit-identical whatever BatchSize is and
// wherever the adaptive flush happens to cut the batches — under a static
// model, the refit lifecycle and the incremental one with drift
// corrections, and equal to the lifecycle driven serially, one bin at a
// time. ScoreBatch is row-wise, and a lane finishes a due refit before it
// takes the next bin.
func TestAdaptiveBatchVerdictsIndependentOfBatchSize(t *testing.T) {
	const p, lanes, n = 8, 3, 400
	rng := rand.New(rand.NewPCG(91, 92))
	models := make([]*engine.Model, lanes)
	for i := range models {
		models[i] = fitLane(t, rng, 300, p)
	}
	live := synth(rand.New(rand.NewPCG(93, 94)), n, p, 6) // noisy enough to alarm
	for name, cfg := range map[string]Config{
		"static":      {},
		"refit":       {RefitEvery: 10, Window: 40},
		"incremental": {Updater: engine.UpdaterIncremental, RefitEvery: 10, Window: 40},
	} {
		t.Run(name, func(t *testing.T) {
			want := serialVerdicts(t, models, cfg, live, lanes, n)
			alarms := 0
			for _, v := range want {
				if v.Alarm() {
					alarms++
				}
			}
			if alarms == 0 {
				t.Fatal("no bin alarmed: the comparison would not cover attribution")
			}
			if g := want[n-1].Gens[0]; cfg.RefitEvery > 0 && g == 0 {
				t.Fatal("no refit landed: the comparison would not cover generations")
			}
			for _, size := range []int{1, 7, 16} {
				cfg.BatchSize = size
				pipe, err := New(models, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := feed(t, pipe, live, lanes, n)
				if len(got) != n {
					t.Fatalf("BatchSize %d: %d verdicts, want %d", size, len(got), n)
				}
				for i, v := range got {
					w := want[i]
					if v.Bin != w.Bin {
						t.Fatalf("BatchSize %d: verdict %d has bin %d", size, i, v.Bin)
					}
					for l := 0; l < lanes; l++ {
						if v.Points[l] != w.Points[l] || v.Gens[l] != w.Gens[l] {
							t.Fatalf("BatchSize %d bin %d lane %d: %+v gen %d, serial %+v gen %d", size, i, l, v.Points[l], v.Gens[l], w.Points[l], w.Gens[l])
						}
						if !reflect.DeepEqual(v.Attribs[l], w.Attribs[l]) {
							t.Fatalf("BatchSize %d bin %d lane %d: attributions %+v, serial %+v", size, i, l, v.Attribs[l], w.Attribs[l])
						}
					}
				}
			}
		})
	}
}

// serialVerdicts is the pipeline's reference: each lane's lifecycle driven
// one bin at a time on the test goroutine — Score, AttributeLive, then
// engine.Advance — over the vectors feed submits.
func serialVerdicts(t *testing.T, models []*engine.Model, cfg Config, live *mat.Matrix, lanes, n int) []Verdict {
	t.Helper()
	ups := make([]engine.Updater, lanes)
	for l, m := range models {
		up, err := engine.NewUpdater(cfg.Updater, m, cfg.updaterConfig())
		if err != nil {
			t.Fatal(err)
		}
		ups[l] = up
	}
	out := make([]Verdict, n)
	for bin := range out {
		vecs := laneVecs(live, lanes, bin)
		v := Verdict{
			Bin:     bin,
			Points:  make([]engine.Point, lanes),
			Gens:    make([]uint64, lanes),
			Attribs: make([][]identify.Attribution, lanes),
		}
		for l, up := range ups {
			m := up.Model()
			pt, err := m.Score(vecs[l])
			if err != nil {
				t.Fatal(err)
			}
			att, err := identify.AttributeLive(m, bin, vecs[l], pt)
			if err != nil {
				t.Fatal(err)
			}
			v.Points[l], v.Gens[l], v.Attribs[l] = pt, m.Gen(), att
			if err := engine.Advance(up, vecs[l], nil); err != nil {
				t.Fatal(err)
			}
		}
		out[bin] = v
	}
	return out
}
