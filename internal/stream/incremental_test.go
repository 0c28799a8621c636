package stream

import (
	"math/rand/v2"
	"testing"

	"netwide/internal/engine"
)

// TestIncrementalPipelineScoresInBand: under the incremental lifecycle the
// pipeline delivers ordered verdicts whose scoring model advances every
// bin — staleness stays at one bin, generations stay at 0 (no full refits)
// — and the barrier captures tracker state.
func TestIncrementalPipelineScoresInBand(t *testing.T) {
	rng := rand.New(rand.NewPCG(141, 142))
	const p, lanes, n = 8, 2, 50
	models := make([]*engine.Model, lanes)
	for i := range models {
		models[i] = fitLane(t, rng, 300, p)
	}
	pipe, err := New(models, Config{BatchSize: 7, Updater: engine.UpdaterIncremental})
	if err != nil {
		t.Fatal(err)
	}
	live := synth(rand.New(rand.NewPCG(143, 144)), n, p, 2)
	done := collect(pipe)
	for bin := 0; bin < n; bin++ {
		if err := pipe.Submit(Sample{Bin: bin, Vecs: laneVecs(live, lanes, bin)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.Barrier(nil); err != nil {
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
	for i, v := range vs[:n] {
		if v.Bin != i {
			t.Fatalf("verdict %d has bin %d", i, v.Bin)
		}
		for l, g := range v.Gens {
			if g != 0 {
				t.Fatalf("bin %d lane %d: generation %d without full refits", v.Bin, l, g)
			}
		}
	}
	bar := vs[n].Barrier
	if bar == nil {
		t.Fatal("final verdict is not the barrier")
	}
	for l, st := range bar.Lanes {
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
	for l, fr := range pipe.Freshness() {
		if fr.Kind != engine.UpdaterIncremental || fr.Staleness != 1 || fr.Updates != n {
			t.Fatalf("lane %d freshness %+v, want incremental, staleness 1, %d updates", l, fr, n)
		}
	}
}

// TestIncrementalRestoreParity is checkpoint/restore under the incremental
// lifecycle: a pipeline rebuilt from a barrier (tracker vectors included)
// must score the remaining bins bit-identically to an uninterrupted run.
// This is a sharper property than the refit-lifecycle parity test: the
// model mutates every bin, so any lost tracker state shows up immediately.
func TestIncrementalRestoreParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(151, 152))
	const p, lanes, n, cut = 8, 2, 90, 41
	models := make([]*engine.Model, lanes)
	for i := range models {
		models[i] = fitLane(t, rng, 300, p)
	}
	live := synth(rand.New(rand.NewPCG(153, 154)), n, p, 6)
	cfg := Config{BatchSize: 7, Updater: engine.UpdaterIncremental}

	full, err := New(models, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := feed(t, full, live, lanes, n)

	head, err := New(models, cfg)
	if err != nil {
		t.Fatal(err)
	}
	headDone := collect(head)
	for bin := 0; bin < cut; bin++ {
		if err := head.Submit(Sample{Bin: bin, Vecs: laneVecs(live, lanes, bin)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := head.Barrier(nil); err != nil {
		t.Fatal(err)
	}
	head.Close()
	if err := head.Wait(); err != nil {
		t.Fatal(err)
	}
	headVs := <-headDone
	bar := headVs[len(headVs)-1].Barrier
	if bar == nil {
		t.Fatal("final verdict of the head run is not the barrier")
	}

	tail, err := NewRestored(bar, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tailDone := collect(tail)
	for bin := cut; bin < n; bin++ {
		if err := tail.Submit(Sample{Bin: bin, Vecs: laneVecs(live, lanes, bin)}); err != nil {
			t.Fatal(err)
		}
	}
	tail.Close()
	if err := tail.Wait(); err != nil {
		t.Fatal(err)
	}
	got := append(headVs[:len(headVs)-1], <-tailDone...)

	if len(got) != len(want) {
		t.Fatalf("split run emitted %d verdicts, uninterrupted %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Bin != w.Bin {
			t.Fatalf("verdict %d: bin %d vs %d", i, g.Bin, w.Bin)
		}
		for l := range w.Points {
			if g.Points[l] != w.Points[l] || g.Gens[l] != w.Gens[l] {
				t.Fatalf("bin %d lane %d: split %+v gen %d, uninterrupted %+v gen %d",
					w.Bin, l, g.Points[l], g.Gens[l], w.Points[l], w.Gens[l])
			}
			if len(g.Attribs[l]) != len(w.Attribs[l]) {
				t.Fatalf("bin %d lane %d: %d attributions vs %d", w.Bin, l, len(g.Attribs[l]), len(w.Attribs[l]))
			}
		}
	}
}

// TestIncrementalDriftCorrectionAdvancesGeneration: with RefitEvery set,
// the incremental pipeline corrects the tracker with an exact refit of the
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
	cfg := Config{BatchSize: 4, Updater: engine.UpdaterIncremental, RefitEvery: 10, Window: 40}
	pipe, err := New(models, cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := synth(rand.New(rand.NewPCG(163, 164)), n, p, 2)
	got := feed(t, pipe, live, lanes, n)
	if len(got) != n {
		t.Fatalf("got %d verdicts, want %d", len(got), n)
	}
	for i, v := range got {
		for l, g := range v.Gens {
			if g != uint64(i/10) {
				t.Fatalf("bin %d lane %d scored by generation %d, want %d", i, l, g, i/10)
			}
		}
	}
	for l, fr := range pipe.Freshness() {
		if fr.Staleness > 1 {
			t.Fatalf("lane %d staleness %d bins under the incremental lifecycle", l, fr.Staleness)
		}
	}
}
