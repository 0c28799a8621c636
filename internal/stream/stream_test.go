package stream

import (
	"errors"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"netwide/internal/engine"
	"netwide/internal/mat"
)

// synth builds an n x p traffic-like matrix: a shared sinusoidal daily
// pattern plus per-flow noise, so the PCA has a clear low-dimensional
// normal subspace like real OD traffic.
func synth(rng *rand.Rand, n, p int, noise float64) *mat.Matrix {
	m := mat.New(n, p)
	for i := 0; i < n; i++ {
		daily := math.Sin(2 * math.Pi * float64(i) / 288)
		row := m.RowView(i)
		for j := range row {
			row[j] = 100 + 40*daily*float64(1+j%3) + noise*rng.NormFloat64()
		}
	}
	return m
}

func fitLane(t *testing.T, rng *rand.Rand, n, p int) *engine.Model {
	t.Helper()
	det, err := engine.Fit(synth(rng, n, p, 2), engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// feed submits n bins drawn from live (one row per lane vector, lane l
// offset by l to make lanes distinguishable) and returns the collected
// verdicts, in arrival order.
func feed(t *testing.T, pipe *Pipeline, live *mat.Matrix, lanes, n int) []Verdict {
	t.Helper()
	done := make(chan []Verdict)
	go func() {
		var got []Verdict
		for v := range pipe.Verdicts() {
			got = append(got, v)
		}
		done <- got
	}()
	for bin := 0; bin < n; bin++ {
		vecs := make([][]float64, lanes)
		for l := range vecs {
			row := live.Row(bin % live.Rows())
			for j := range row {
				row[j] += float64(l)
			}
			vecs[l] = row
		}
		if err := pipe.Submit(Sample{Bin: bin, Vecs: vecs}); err != nil {
			t.Fatal(err)
		}
	}
	pipe.Close()
	if err := pipe.Wait(); err != nil {
		t.Fatal(err)
	}
	return <-done
}

func TestPipelineOrderedAndMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	const p, lanes, n = 8, 3, 500
	dets := make([]*engine.Model, lanes)
	for i := range dets {
		dets[i] = fitLane(t, rng, 300, p)
	}
	pipe, err := New(dets, Config{BatchSize: 7}) // batch that doesn't divide n
	if err != nil {
		t.Fatal(err)
	}
	live := synth(rand.New(rand.NewPCG(33, 34)), n, p, 2)
	got := feed(t, pipe, live, lanes, n)
	if len(got) != n {
		t.Fatalf("got %d verdicts, want %d", len(got), n)
	}
	for i, v := range got {
		if v.Bin != i {
			t.Fatalf("verdict %d has bin %d: stream reordered", i, v.Bin)
		}
	}
	// Spot-check against serial scoring through the same models.
	for _, i := range []int{0, 6, 7, 250, n - 1} {
		vecs := make([][]float64, lanes)
		for l := range vecs {
			row := live.Row(i % live.Rows())
			for j := range row {
				row[j] += float64(l)
			}
			vecs[l] = row
		}
		for l, det := range dets {
			want, err := det.Score(vecs[l])
			if err != nil {
				t.Fatal(err)
			}
			gotPt := got[i].Points[l]
			if math.Abs(gotPt.SPE-want.SPE) > 1e-9*(1+want.SPE) || gotPt.SPEAlarm != want.SPEAlarm {
				t.Fatalf("bin %d lane %d: stream SPE %v, serial %v", i, l, gotPt.SPE, want.SPE)
			}
		}
	}
}

func TestPipelineRefitDuringScoring(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	const p, lanes, n = 8, 3, 1200
	dets := make([]*engine.Model, lanes)
	for i := range dets {
		dets[i] = fitLane(t, rng, 200, p)
	}
	pipe, err := New(dets, Config{BatchSize: 4, RefitEvery: 50, Window: 100})
	if err != nil {
		t.Fatal(err)
	}
	live := synth(rand.New(rand.NewPCG(43, 44)), n, p, 2)
	got := feed(t, pipe, live, lanes, n)
	if len(got) != n {
		t.Fatalf("got %d verdicts, want %d: refit dropped bins", len(got), n)
	}
	for i, v := range got {
		if v.Bin != i {
			t.Fatalf("verdict %d has bin %d: refit reordered the stream", i, v.Bin)
		}
	}
	for l, g := range pipe.Generations() {
		if g == 0 {
			t.Fatalf("lane %d never refitted over %d bins (RefitEvery=50)", l, n)
		}
	}
	// Generations recorded on verdicts must be monotone per lane and reach
	// the final generation.
	for l := 0; l < lanes; l++ {
		var prev uint64
		for i, v := range got {
			if v.Gens[l] < prev {
				t.Fatalf("lane %d gen went backwards at bin %d: %d -> %d", l, i, prev, v.Gens[l])
			}
			prev = v.Gens[l]
		}
	}
}

func TestPipelineFlagsAnomaly(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 52))
	const p = 8
	det := fitLane(t, rng, 400, p)
	pipe, err := New([]*engine.Model{det}, Config{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	clean := synth(rand.New(rand.NewPCG(53, 54)), 4, p, 2)
	dirty := clean.Row(2)
	dirty[5] += 5000
	done := make(chan []Verdict)
	go func() {
		var got []Verdict
		for v := range pipe.Verdicts() {
			got = append(got, v)
		}
		done <- got
	}()
	for bin := 0; bin < 4; bin++ {
		x := clean.Row(bin)
		if bin == 2 {
			x = dirty
		}
		if err := pipe.Submit(Sample{Bin: bin, Vecs: [][]float64{x}}); err != nil {
			t.Fatal(err)
		}
	}
	pipe.Close()
	if err := pipe.Wait(); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got[0].Alarm() {
		t.Fatalf("clean bin alarmed: %+v", got[0].Points[0])
	}
	if !got[2].Alarm() {
		t.Fatalf("spiked bin not alarmed: %+v", got[2].Points[0])
	}
	if lanes := got[2].AlarmLanes(); len(lanes) != 1 || lanes[0] != 0 {
		t.Fatalf("AlarmLanes = %v, want [0]", lanes)
	}
	if got[2].Points[0].TopResidualOD != 5 {
		t.Fatalf("top residual OD %d, want 5", got[2].Points[0].TopResidualOD)
	}
}

func TestPipelineValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 62))
	det := fitLane(t, rng, 200, 8)

	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("empty detector list accepted")
	}
	if _, err := New([]*engine.Model{det}, Config{RefitEvery: 10, Window: 8}); err == nil {
		t.Fatal("window <= p accepted with refitting on")
	}

	pipe, err := New([]*engine.Model{det}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Lanes() != 1 {
		t.Fatalf("Lanes() = %d, want 1", pipe.Lanes())
	}
	if err := pipe.Submit(Sample{Vecs: [][]float64{{1, 2}, {3, 4}}}); err == nil {
		t.Fatal("wrong lane count accepted")
	}
	if err := pipe.Submit(Sample{Vecs: [][]float64{{1, 2, 3}}}); err == nil {
		t.Fatal("wrong vector length accepted")
	}
	pipe.Close()
	pipe.Close() // idempotent
	if err := pipe.Submit(Sample{Vecs: [][]float64{make([]float64, 8)}}); err == nil {
		t.Fatal("submit after Close accepted")
	}
	if err := pipe.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineAttributesAlarms: with Attribute on, an alarmed bin's verdict
// carries per-lane attributions naming the responsible OD flows against the
// scoring model.
func TestPipelineAttributesAlarms(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 72))
	const p = 8
	det := fitLane(t, rng, 400, p)
	pipe, err := New([]*engine.Model{det}, Config{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	clean := synth(rand.New(rand.NewPCG(73, 74)), 4, p, 2)
	dirty := clean.Row(2)
	dirty[5] += 5000
	done := make(chan []Verdict)
	go func() {
		var got []Verdict
		for v := range pipe.Verdicts() {
			got = append(got, v)
		}
		done <- got
	}()
	for bin := 0; bin < 4; bin++ {
		x := clean.Row(bin)
		if bin == 2 {
			x = dirty
		}
		if err := pipe.Submit(Sample{Bin: bin, Vecs: [][]float64{x}}); err != nil {
			t.Fatal(err)
		}
	}
	pipe.Close()
	if err := pipe.Wait(); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if len(got[0].Attribs[0]) != 0 {
		t.Fatalf("clean bin attributed: %+v", got[0].Attribs[0])
	}
	atts := got[2].Attribs[0]
	if len(atts) == 0 {
		t.Fatal("alarmed bin has no attributions")
	}
	for _, att := range atts {
		if att.Alarm.Bin != 2 {
			t.Fatalf("attribution bin %d, want 2", att.Alarm.Bin)
		}
		if len(att.ODs) == 0 || att.ODs[0] != 5 {
			t.Fatalf("attribution ODs %v, want leading OD 5", att.ODs)
		}
		if att.Residuals[0] <= 0 {
			t.Fatalf("spike attributed with non-positive residual %v", att.Residuals[0])
		}
	}
}

// TestLaneErrorPropagates is the regression test for the lane-worker panic:
// a scoring failure on a background goroutine used to kill the whole
// process. Now the first error is recorded on the pipeline, the verdict
// stream still delivers every submitted bin (with placeholder points for
// the failed lane), and Wait surfaces the error.
func TestLaneErrorPropagates(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	const p = 8
	model := fitLane(t, rng, 64, p)
	pipe, err := New([]*engine.Model{model}, Config{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Swap in a model of a different width behind Submit's validation: every
	// subsequent batch fails ScoreBatch exactly like a corrupted refit or a
	// model/vector drift bug would, without tripping the edge checks.
	bad := fitLane(t, rng, 64, p-2)
	pipe.lanes[0].up.Install(bad)

	live := synth(rng, 6, p, 2)
	done := make(chan []Verdict)
	go func() {
		var vs []Verdict
		for v := range pipe.Verdicts() {
			vs = append(vs, v)
		}
		done <- vs
	}()
	for bin := 0; bin < live.Rows(); bin++ {
		if err := pipe.Submit(Sample{Bin: bin, Vecs: [][]float64{live.RowView(bin)}}); err != nil {
			t.Fatal(err)
		}
	}
	pipe.Close()
	verdicts := <-done
	if err := pipe.Wait(); err == nil {
		t.Fatal("scoring failure did not surface from Wait")
	} else if want := "lane 0 score"; !strings.Contains(err.Error(), want) {
		t.Fatalf("Wait error %q does not name the failing stage (%q)", err, want)
	}
	if pipe.Err() == nil {
		t.Fatal("Err() nil after failure")
	}
	// The ordered verdict stream must stay complete: every submitted bin
	// comes back, in order, with placeholder (non-alarming) points.
	if len(verdicts) != live.Rows() {
		t.Fatalf("got %d verdicts for %d submitted bins", len(verdicts), live.Rows())
	}
	for i, v := range verdicts {
		if v.Bin != i {
			t.Fatalf("verdict %d carries bin %d", i, v.Bin)
		}
		if v.Alarm() {
			t.Fatalf("placeholder verdict for failed bin %d alarms", i)
		}
	}
}

// TestAttributeErrorPropagates drives the attribution error path the same
// way: scoring succeeds, attribution fails, the pipeline records the error
// and still emits the scored points.
func TestAttributeErrorPropagates(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	const p = 8
	model := fitLane(t, rng, 64, p)
	pipe, err := New([]*engine.Model{model}, Config{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	live := synth(rng, 4, p, 2)
	done := make(chan int)
	go func() {
		n := 0
		for range pipe.Verdicts() {
			n++
		}
		done <- n
	}()
	// A NaN-poisoned vector scores (NaN statistics do not error) but makes
	// attribution reject the residual it cannot rank.
	for bin := 0; bin < live.Rows(); bin++ {
		row := live.RowView(bin)
		if bin == 2 {
			poisoned := make([]float64, p)
			copy(poisoned, row)
			poisoned[0] = math.NaN()
			row = poisoned
		}
		if err := pipe.Submit(Sample{Bin: bin, Vecs: [][]float64{row}}); err != nil {
			t.Fatal(err)
		}
	}
	pipe.Close()
	n := <-done
	err = pipe.Wait()
	if n != live.Rows() {
		t.Fatalf("got %d verdicts for %d submitted bins", n, live.Rows())
	}
	// Whether the NaN trips attribution is an identify-internal contract;
	// what this test pins is that IF it errors the process survives and the
	// verdict stream completes — which the assertions above already did.
	t.Logf("Wait after NaN bin: %v", err)
}

// TestRefitErrorIsDegradedNotFatal pins the operational split between the
// two background failure classes: a refit failure leaves the pipeline
// degraded — Err() (the liveness signal) stays nil, RefitErr() reports
// it, and Wait() returns it once the stream ends — while a scoring
// failure is fatal and takes precedence everywhere.
func TestRefitErrorIsDegradedNotFatal(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	model := fitLane(t, rng, 64, 8)
	pipe, err := New([]*engine.Model{model}, Config{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	pipe.failRefit(errors.New("synthetic refit failure"))
	if pipe.Err() != nil {
		t.Fatalf("refit failure leaked into the fatal Err(): %v", pipe.Err())
	}
	if pipe.RefitErr() == nil {
		t.Fatal("RefitErr() lost the refit failure")
	}
	go func() {
		for range pipe.Verdicts() {
		}
	}()
	pipe.Close()
	if err := pipe.Wait(); err == nil || !strings.Contains(err.Error(), "refit") {
		t.Fatalf("Wait() = %v, want the refit failure", err)
	}

	// Fatal beats degraded.
	pipe.fail(errors.New("scoring failure"))
	if err := pipe.Err(); err == nil || !strings.Contains(err.Error(), "scoring") {
		t.Fatalf("Err() = %v, want the scoring failure", err)
	}
	if err := pipe.Wait(); err == nil || !strings.Contains(err.Error(), "scoring") {
		t.Fatalf("Wait() = %v, want the scoring failure to take precedence", err)
	}
}

// TestUnconvergedFitDegradesPipeline: a lane model whose partial fit hit
// the sweep cap scores as usual and marks the pipeline degraded, the same
// signal a failed refit raises. (engine's tests produce a fit that really
// does not converge; here the flag is set by hand on a cheap model.)
func TestUnconvergedFitDegradesPipeline(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	model := fitLane(t, rng, 64, 8)
	model.PCA().Sweeps, model.PCA().Unconverged = 80, true
	pipe, err := New([]*engine.Model{model}, Config{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.RefitErr(); err == nil || !strings.Contains(err.Error(), "unconverged") {
		t.Fatalf("RefitErr() = %v, want the unconverged-fit warning", err)
	}
	if err := pipe.Err(); err != nil {
		t.Fatalf("unconverged fit leaked into the fatal Err(): %v", err)
	}
	go func() {
		for range pipe.Verdicts() {
		}
	}()
	if err := pipe.Submit(Sample{Bin: 0, Vecs: [][]float64{synth(rng, 1, 8, 2).Row(0)}}); err != nil {
		t.Fatal(err)
	}
	pipe.Close()
	if err := pipe.Wait(); err == nil || !strings.Contains(err.Error(), "unconverged") {
		t.Fatalf("Wait() = %v, want the unconverged-fit warning", err)
	}
}
