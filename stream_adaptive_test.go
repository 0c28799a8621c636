package netwide

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
	for name, cfg := range map[string]StreamConfig{
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
			pipe, err := lanesFor(models, cfg)
			if err != nil {
				t.Fatal(err)
			}
			live := synth(rand.New(rand.NewPCG(73, 74)), n, p, 2)
			verdicts := make(chan []laneResult)
			go func() {
				for rs := range pipe.results() {
					verdicts <- rs
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
				if err := pipe.submit(bin, vecs...); err != nil {
					t.Fatal(err)
				}
				select {
				case rs := <-verdicts:
					if rs[0].bin != bin {
						t.Fatalf("lockstep got bin %d, want %d", rs[0].bin, bin)
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
			for l, fr := range freshness(pipe) {
				if cfg.RefitEvery > 0 && fr.Gen == 0 {
					t.Fatalf("lane %d never refitted: the refit lifecycle was not exercised", l)
				}
			}
		})
	}
}

// TestAdaptiveBatchFillsUnderBacklog: with work queued behind it the lane
// still hands ScoreBatch full BatchSize-row batches. The lane is held at
// its first (single-bin) flush through the detector's batchHook while its
// queue is filled to within 11 bins of its depth, nothing consumes
// verdicts meanwhile, and the batch sizes that follow are exact: whole
// batches while the queue lasts, the remainder when it runs dry.
func TestAdaptiveBatchFillsUnderBacklog(t *testing.T) {
	t.Parallel()
	const p, batch = 8, 16
	backlog := depthPerBatch*batch - 11 // 9 whole batches and a remainder of 5
	model := fitLane(t, rand.New(rand.NewPCG(81, 82)), 200, p)
	pipe, err := lanesFor([]*engine.Model{model}, StreamConfig{BatchSize: batch})
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int // lane goroutine only, read after Wait
	held, release := make(chan struct{}), make(chan struct{})
	pipe.batchHook = func(n int) {
		if sizes = append(sizes, n); len(sizes) == 1 {
			close(held)
			<-release
		}
	}
	live := synth(rand.New(rand.NewPCG(83, 84)), 1+backlog, p, 2)
	for bin := 0; bin < 1+backlog; bin++ {
		if bin == 1 {
			<-held // bin 0 found the queue empty and is being scored alone
		}
		if err := pipe.submit(bin, live.Row(bin)); err != nil {
			t.Fatal(err)
		}
	}
	if q := len(pipe.lanes[0].in); q != backlog { // Submit sends straight to the lane
		t.Fatalf("lane queue holds %d bins, want %d", q, backlog)
	}
	close(release)
	pipe.Close()
	n := 0
	for rs := range pipe.results() {
		if rs[0].bin != n {
			t.Fatalf("verdict %d has bin %d", n, rs[0].bin)
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
	for name, cfg := range map[string]StreamConfig{
		"static":      {},
		"refit":       {RefitEvery: 10, Window: 40},
		"incremental": {Updater: string(engine.UpdaterIncremental), RefitEvery: 10, Window: 40},
	} {
		t.Run(name, func(t *testing.T) {
			want := serialVerdicts(t, models, cfg, live, lanes, n)
			alarms := 0
			for _, rs := range want {
				if alarmed(rs) {
					alarms++
				}
			}
			if alarms == 0 {
				t.Fatal("no bin alarmed: the comparison would not cover attribution")
			}
			if g := want[n-1][0].gen; cfg.RefitEvery > 0 && g == 0 {
				t.Fatal("no refit landed: the comparison would not cover generations")
			}
			for _, size := range []int{1, 7, 16} {
				cfg.BatchSize = size
				pipe, err := lanesFor(models, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := feed(t, pipe, live, lanes, n)
				if len(got) != n {
					t.Fatalf("BatchSize %d: %d verdicts, want %d", size, len(got), n)
				}
				for i, rs := range got {
					if rs[0].bin != want[i][0].bin {
						t.Fatalf("BatchSize %d: verdict %d has bin %d", size, i, rs[0].bin)
					}
					for l, w := range want[i] {
						g := rs[l]
						if g.pt != w.pt || g.gen != w.gen {
							t.Fatalf("BatchSize %d bin %d lane %d: %+v gen %d, serial %+v gen %d", size, i, l, g.pt, g.gen, w.pt, w.gen)
						}
						if !reflect.DeepEqual(g.att, w.att) {
							t.Fatalf("BatchSize %d bin %d lane %d: attributions %+v, serial %+v", size, i, l, g.att, w.att)
						}
					}
				}
			}
		})
	}
}

// serialVerdicts is the lanes' reference: each lane's lifecycle driven one
// bin at a time on the test goroutine — Score, AttributeLive, then
// engine.Advance — over the vectors feed submits.
func serialVerdicts(t *testing.T, models []*engine.Model, cfg StreamConfig, live *mat.Matrix, lanes, n int) [][]laneResult {
	t.Helper()
	ups := make([]engine.Updater, lanes)
	for l, m := range models {
		up, err := engine.NewUpdater(engine.UpdaterKind(cfg.Updater), m, cfg.updaterConfig())
		if err != nil {
			t.Fatal(err)
		}
		ups[l] = up
	}
	out := make([][]laneResult, n)
	for bin := range out {
		vecs := laneVecs(live, lanes, bin)
		out[bin] = make([]laneResult, lanes)
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
			out[bin][l] = laneResult{laneTask: laneTask{bin: bin, x: vecs[l]}, pt: pt, gen: m.Gen(), att: att}
			if err := engine.Advance(up, vecs[l], nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// TestIncrementalPipelineScoresInBand: under the incremental lifecycle the
// detector delivers ordered verdicts whose scoring model advances every
// bin — staleness stays at one bin, generations stay at 0 (no full refits)
// — and the barrier captures tracker state.
func TestIncrementalPipelineScoresInBand(t *testing.T) {
	rng := rand.New(rand.NewPCG(141, 142))
	const p, lanes, n = 8, 2, 50
	models := make([]*engine.Model, lanes)
	for i := range models {
		models[i] = fitLane(t, rng, 300, p)
	}
	pipe, err := lanesFor(models, StreamConfig{BatchSize: 7, Updater: string(engine.UpdaterIncremental)})
	if err != nil {
		t.Fatal(err)
	}
	live := synth(rand.New(rand.NewPCG(143, 144)), n, p, 2)
	done := collect(pipe)
	for bin := 0; bin < n; bin++ {
		if err := pipe.submit(bin, laneVecs(live, lanes, bin)...); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	pipe.Close()
	if err := pipe.Wait(); err != nil {
		t.Fatal(err)
	}
	vs := <-done
	if len(vs) != n+1 {
		t.Fatalf("got %d verdicts, want %d data + 1 barrier", len(vs), n)
	}
	for i, rs := range vs[:n] {
		for l, r := range rs {
			if r.bin != i {
				t.Fatalf("verdict %d has bin %d", i, r.bin)
			}
			if r.gen != 0 {
				t.Fatalf("bin %d lane %d: generation %d without full refits", r.bin, l, r.gen)
			}
		}
	}
	cp := vs[n][0].cp
	if cp == nil {
		t.Fatal("final verdict is not the barrier")
	}
	for l, st := range cp.Lanes {
		if st.Kind != engine.UpdaterIncremental {
			t.Fatalf("lane %d captured kind %q", l, st.Kind)
		}
		if st.Tracker == nil {
			t.Fatalf("lane %d barrier carries no tracker state", l)
		}
		if st.Model.Updates != n {
			t.Fatalf("lane %d model absorbed %d bins, want %d", l, st.Model.Updates, n)
		}
	}
	for l, fr := range freshness(pipe) {
		if fr.Kind != engine.UpdaterIncremental || fr.Staleness != 1 || fr.Updates != n {
			t.Fatalf("lane %d freshness %+v, want incremental, staleness 1, %d updates", l, fr, n)
		}
	}
}

// TestIncrementalRestoreParity is checkpoint/restore under the incremental
// lifecycle: a detector rebuilt from a barrier (tracker vectors included)
// must score the remaining bins bit-identically to an uninterrupted run.
// This is a sharper property than the refit-lifecycle parity test: the
// model mutates every bin, so any lost tracker state shows up immediately.
func TestIncrementalRestoreParity(t *testing.T) {
	splitParity(t, 151, 2, StreamConfig{BatchSize: 7, Updater: string(engine.UpdaterIncremental)})
}

// TestIncrementalDriftCorrectionAdvancesGeneration: with RefitEvery set,
// the incremental detector corrects the tracker with an exact refit of the
// rolling window every RefitEvery bins — the correction scores the next
// bin, so the generation moves at fixed bins — while per-bin updates keep
// staleness at one bin throughout.
func TestIncrementalDriftCorrectionAdvancesGeneration(t *testing.T) {
	rng := rand.New(rand.NewPCG(161, 162))
	const p, lanes, n = 6, 2, 120
	models := make([]*engine.Model, lanes)
	for i := range models {
		models[i] = fitLane(t, rng, 200, p)
	}
	cfg := StreamConfig{BatchSize: 4, Updater: string(engine.UpdaterIncremental), RefitEvery: 10, Window: 40}
	pipe, err := lanesFor(models, cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := synth(rand.New(rand.NewPCG(163, 164)), n, p, 2)
	got := feed(t, pipe, live, lanes, n)
	if len(got) != n {
		t.Fatalf("got %d verdicts, want %d", len(got), n)
	}
	for i, rs := range got {
		for l, r := range rs {
			if r.gen != uint64(i/10) {
				t.Fatalf("bin %d lane %d scored by generation %d, want %d", i, l, r.gen, i/10)
			}
		}
	}
	for l, fr := range freshness(pipe) {
		if fr.Staleness > 1 {
			t.Fatalf("lane %d staleness %d bins under the incremental lifecycle", l, fr.Staleness)
		}
	}
}
