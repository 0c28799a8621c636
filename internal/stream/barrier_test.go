package stream

import (
	"errors"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netwide/internal/engine"
	"netwide/internal/fault"
	"netwide/internal/mat"
)

// laneVecs builds the per-lane vectors for one bin the way feed does: one
// row of live, lane l offset by l.
func laneVecs(live *mat.Matrix, lanes, bin int) [][]float64 {
	vecs := make([][]float64, lanes)
	for l := range vecs {
		row := live.Row(bin % live.Rows())
		for j := range row {
			row[j] += float64(l)
		}
		vecs[l] = row
	}
	return vecs
}

func collect(pipe *Pipeline) chan []Verdict {
	done := make(chan []Verdict, 1)
	go func() {
		var got []Verdict
		for v := range pipe.Verdicts() {
			got = append(got, v)
		}
		done <- got
	}()
	return done
}

// TestBarrierOrderedAmongSubmits pins the barrier's core guarantee: it
// surfaces in the verdict stream exactly where it was called in the
// submission order, with every lane's state captured.
func TestBarrierOrderedAmongSubmits(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 92))
	const p, lanes, n = 8, 3, 60
	models := make([]*engine.Model, lanes)
	for i := range models {
		models[i] = fitLane(t, rng, 300, p)
	}
	pipe, err := New(models, Config{BatchSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	live := synth(rand.New(rand.NewPCG(93, 94)), n, p, 2)
	done := collect(pipe)
	cuts := map[int]bool{0: true, 23: true, n: true} // barrier before bin 0, before 23, after all
	for bin := 0; bin < n; bin++ {
		if cuts[bin] {
			if err := pipe.Barrier(nil); err != nil {
				t.Fatal(err)
			}
		}
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
	got := <-done
	if len(got) != n+3 {
		t.Fatalf("got %d verdicts, want %d data + 3 barriers", len(got), n)
	}
	nextBin := 0
	for i, v := range got {
		if v.Barrier != nil {
			if v.Bin != -1 || v.Points != nil {
				t.Fatalf("verdict %d: barrier carries bin %d / points %v", i, v.Bin, v.Points)
			}
			if !cuts[nextBin] {
				t.Fatalf("verdict %d: barrier surfaced before bin %d, not at a cut", i, nextBin)
			}
			if len(v.Barrier.Lanes) != lanes {
				t.Fatalf("verdict %d: barrier has %d lane states", i, len(v.Barrier.Lanes))
			}
			for l, st := range v.Barrier.Lanes {
				if len(st.Updater.Model.Mean) == 0 {
					t.Fatalf("verdict %d lane %d: no model captured", i, l)
				}
				if st.Updater.Kind != engine.UpdaterRefit {
					t.Fatalf("verdict %d lane %d: lifecycle kind %q, want %q", i, l, st.Updater.Kind, engine.UpdaterRefit)
				}
				if st.Updater.Window != nil {
					t.Fatalf("verdict %d lane %d: window captured with refits disabled", i, l)
				}
			}
			continue
		}
		if v.Bin != nextBin {
			t.Fatalf("verdict %d has bin %d, want %d", i, v.Bin, nextBin)
		}
		nextBin++
	}
	if pipe.Barrier(nil) == nil {
		t.Fatal("barrier after Close succeeded")
	}
}

// TestBarrierRestoreParity is the checkpoint/restore property at the
// pipeline layer: cut a run at a barrier, rebuild a pipeline from the
// captured lane states, feed it the rest — the combined verdicts must be
// bit-identical to an uninterrupted run (refits disabled, so the models
// are the only state that matters).
func TestBarrierRestoreParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 102))
	const p, lanes, n, cut = 8, 3, 90, 41
	models := make([]*engine.Model, lanes)
	for i := range models {
		models[i] = fitLane(t, rng, 300, p)
	}
	live := synth(rand.New(rand.NewPCG(103, 104)), n, p, 6)
	cfg := Config{BatchSize: 7}

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

	tail, err := NewRestored(bar.Lanes, cfg)
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

// TestBarrierCapturesRefitState: with refitting enabled the barrier carries
// each lane's rolling window (newest row = last pre-barrier vector) and
// refit phase, and a pipeline restored from it keeps refitting — the model
// generation advances past the captured one.
func TestBarrierCapturesRefitState(t *testing.T) {
	rng := rand.New(rand.NewPCG(111, 112))
	const p, lanes, n = 6, 2, 80
	models := make([]*engine.Model, lanes)
	for i := range models {
		models[i] = fitLane(t, rng, 200, p)
	}
	cfg := Config{BatchSize: 4, RefitEvery: 10, Window: 40, Faults: fault.NewInjector()}
	pipe, err := New(models, cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := synth(rand.New(rand.NewPCG(113, 114)), n, p, 2)
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
	bar := vs[len(vs)-1].Barrier
	if bar == nil {
		t.Fatal("no barrier verdict")
	}
	for l, st := range bar.Lanes {
		if len(st.Updater.Window) != cfg.Window {
			t.Fatalf("lane %d window %d rows, want %d", l, len(st.Updater.Window), cfg.Window)
		}
		wantLast := laneVecs(live, lanes, n-1)[l]
		last := st.Updater.Window[len(st.Updater.Window)-1]
		for j := range wantLast {
			if last[j] != wantLast[j] {
				t.Fatalf("lane %d: newest window row is not the last pre-barrier vector", l)
			}
		}
		// Since can exceed RefitEvery when a hand-off found the refitter
		// busy, but never goes negative.
		if st.Updater.Since < 0 {
			t.Fatalf("lane %d: negative refit phase %d", l, st.Updater.Since)
		}
	}

	restored, err := NewRestored(bar.Lanes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rDone := collect(restored)
	startGen := bar.Lanes[0].Updater.Model.Gen
	// The refit runs on its own goroutine: keep feeding until it has been
	// adopted (a fixed 28 bins were all scored before it finished, two runs
	// in five on a busy host), then one more batch for it to score.
	tail := -1
	for bin, deadline := n, time.Now().Add(30*time.Second); tail != 0 && time.Now().Before(deadline); bin++ {
		if err := restored.Submit(Sample{Bin: bin, Vecs: laneVecs(live, lanes, bin)}); err != nil {
			t.Fatal(err)
		}
		if tail > 0 {
			tail--
		} else if restored.Generations()[0] > startGen {
			tail = 2 * cfg.BatchSize
		}
	}
	restored.Close()
	if err := restored.Wait(); err != nil {
		t.Fatal(err)
	}
	rvs := <-rDone
	advanced := false
	for _, v := range rvs {
		if v.Gens[0] > startGen {
			advanced = true
		}
	}
	if !advanced {
		t.Fatalf("restored pipeline never refit past generation %d", startGen)
	}
}

// TestRefitFaultDegradesPipeline: an armed FaultRefit error turns every
// background refit into the degraded condition — scoring continues on
// generation 0, Wait reports the injected failure, Err stays nil.
func TestRefitFaultDegradesPipeline(t *testing.T) {
	rng := rand.New(rand.NewPCG(121, 122))
	const p, lanes, n = 6, 2, 60
	models := make([]*engine.Model, lanes)
	for i := range models {
		models[i] = fitLane(t, rng, 200, p)
	}
	inj := fault.NewInjector()
	inj.Arm(FaultRefit, fault.Fault{Err: errors.New("injected refit failure")})
	pipe, err := New(models, Config{BatchSize: 4, RefitEvery: 10, Window: 40, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	live := synth(rand.New(rand.NewPCG(123, 124)), n, p, 2)
	got := feedExpectErr(t, pipe, live, lanes, n, "injected refit failure")
	if len(got) != n {
		t.Fatalf("degraded pipeline emitted %d verdicts, want %d", len(got), n)
	}
	for _, v := range got {
		for l := range v.Gens {
			if v.Gens[l] != 0 {
				t.Fatalf("bin %d lane %d scored on generation %d despite failing refits", v.Bin, l, v.Gens[l])
			}
		}
	}
	if inj.Trips(FaultRefit) == 0 {
		t.Fatal("refit fault never fired")
	}
	if pipe.Err() != nil {
		t.Fatalf("refit fault escalated to fatal: %v", pipe.Err())
	}
}

// feedExpectErr is feed for runs whose Wait must fail with a message
// containing want.
func feedExpectErr(t *testing.T, pipe *Pipeline, live *mat.Matrix, lanes, n int, want string) []Verdict {
	t.Helper()
	done := collect(pipe)
	for bin := 0; bin < n; bin++ {
		if err := pipe.Submit(Sample{Bin: bin, Vecs: laneVecs(live, lanes, bin)}); err != nil {
			t.Fatal(err)
		}
	}
	pipe.Close()
	err := pipe.Wait()
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Wait() = %v, want %q", err, want)
	}
	return <-done
}

// TestNewRestoredValidation: malformed lane states are refused.
func TestNewRestoredValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(131, 132))
	m := fitLane(t, rng, 200, 6)
	ms := m.State()
	win := func(rows, p int) [][]float64 {
		out := make([][]float64, rows)
		for i := range out {
			out[i] = make([]float64, p)
		}
		return out
	}
	refitState := func(window [][]float64, since int) LaneState {
		return LaneState{Updater: engine.UpdaterState{
			Kind: engine.UpdaterRefit, Model: ms, Window: window, Since: since,
		}}
	}
	cases := []struct {
		name   string
		states []LaneState
		cfg    Config
	}{
		{"no states", nil, Config{}},
		{"empty state", []LaneState{{}}, Config{}},
		{"window too small for refit", []LaneState{refitState(nil, 0)}, Config{RefitEvery: 5, Window: 6}},
		{"restored window too long", []LaneState{refitState(win(50, 6), 0)}, Config{RefitEvery: 5, Window: 40}},
		{"negative refit phase", []LaneState{refitState(nil, -1)}, Config{RefitEvery: 5, Window: 40}},
		{"ragged window row", []LaneState{refitState(win(10, 5), 0)}, Config{RefitEvery: 5, Window: 40}},
		{"lifecycle kind mismatch", []LaneState{refitState(nil, 0)}, Config{Updater: engine.UpdaterIncremental}},
	}
	for _, tc := range cases {
		if _, err := NewRestored(tc.states, tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// stateCounter wraps a lane's lifecycle and counts the State deep copies
// asked of it.
type stateCounter struct {
	engine.Updater
	states *atomic.Int64
}

func (c stateCounter) State() engine.UpdaterState {
	c.states.Add(1)
	return c.Updater.State()
}

// TestBarrierTokensInOrderAndNoUninvitedState pins what an injector that
// does not wait for its barrier relies on: barriers come out of the verdict
// stream carrying the token they went in with, exactly at their place among
// the bins and never reordering them — under batched scoring and under the
// in-band lifecycle, which flushes every bin — and a pipeline nobody sent a
// barrier through never copies a lane's state.
func TestBarrierTokensInOrderAndNoUninvitedState(t *testing.T) {
	const p, lanes, n = 8, 3, 200
	for _, kind := range []engine.UpdaterKind{engine.UpdaterRefit, engine.UpdaterIncremental} {
		for _, cuts := range []map[int]bool{nil, {0: true, 1: true, 17: true, 18: true, 150: true}} {
			rng := rand.New(rand.NewPCG(171, 172))
			var states atomic.Int64
			ups := make([]engine.Updater, lanes)
			for i := range ups {
				up, err := engine.NewUpdater(kind, fitLane(t, rng, 300, p), engine.UpdaterConfig{})
				if err != nil {
					t.Fatal(err)
				}
				ups[i] = stateCounter{up, &states}
			}
			pipe, err := newPipeline(ups, Config{BatchSize: 7, Updater: kind})
			if err != nil {
				t.Fatal(err)
			}
			live := synth(rand.New(rand.NewPCG(173, 174)), n, p, 2)
			done := collect(pipe)
			for bin := 0; bin < n; bin++ {
				if cuts[bin] {
					// Two in a row: nothing lies between them, and they must
					// still come out in the order they went in.
					for _, tok := range []int{bin, -bin - 1} {
						if err := pipe.Barrier(tok); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := pipe.Submit(Sample{Bin: bin, Vecs: laneVecs(live, lanes, bin)}); err != nil {
					t.Fatal(err)
				}
			}
			pipe.Close()
			if err := pipe.Wait(); err != nil {
				t.Fatal(err)
			}
			got := <-done
			if len(got) != n+2*len(cuts) {
				t.Fatalf("%s: got %d verdicts, want %d bins + %d barriers", kind, len(got), n, 2*len(cuts))
			}
			nextBin, lastTok := 0, -1
			for i, v := range got {
				switch {
				case v.Barrier == nil:
					if v.Bin != nextBin {
						t.Fatalf("%s: verdict %d has bin %d, want %d", kind, i, v.Bin, nextBin)
					}
					nextBin++
				case v.Barrier.Token == -nextBin-1:
					if lastTok != nextBin || got[i-1].Barrier == nil {
						t.Fatalf("%s: verdict %d: second barrier of cut %d came before the first", kind, i, nextBin)
					}
				case v.Barrier.Token != nextBin || !cuts[nextBin]:
					t.Fatalf("%s: verdict %d: barrier with token %v surfaced before bin %d", kind, i, v.Barrier.Token, nextBin)
				default:
					lastTok = nextBin
				}
			}
			if want := int64(2 * len(cuts) * lanes); states.Load() != want {
				t.Fatalf("%s: %d lane State copies for %d barriers over %d lanes, want %d", kind, states.Load(), 2*len(cuts), lanes, want)
			}
		}
	}
}
