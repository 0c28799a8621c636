package netwide_test

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"

	"netwide"
	"netwide/internal/dataset"
	"netwide/internal/engine"
)

// TestFitOncePerDataset: the detection surfaces share one fit per
// (measure, training rows, options) on a run, and sharing it changes no
// verdict. A run where eight stream detectors race for the first fit and
// Detect comes after them must produce exactly what a run where Detect
// fits first does — stream verdicts and batch events alike — and the
// shared models must equal a direct engine.Fit (refFit) bit for bit.
func TestFitOncePerDataset(t *testing.T) {
	saved := smallRunBytes(t)
	fresh := func() *netwide.Run {
		run, err := netwide.LoadRun(bytes.NewReader(saved))
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	opts := netwide.DefaultDetectOptions()
	eopts := engine.Options{K: opts.K, Alpha: opts.Alpha}
	replay := func(run *netwide.Run, trainBins int) ([]netwide.StreamVerdict, error) {
		det, err := run.NewStreamDetector(opts, netwide.StreamConfig{TrainBins: trainBins, BatchSize: 16})
		if err != nil {
			return nil, err
		}
		// A day of verdicts is enough to tell two models apart.
		return det.Replay(0, 288)
	}

	// Stream first: eight detectors race for the first fit, half asking
	// for every bin by 0 and half by the row count; Detect comes after.
	raced := fresh()
	const racers = 8
	var (
		wg       sync.WaitGroup
		start    = make(chan struct{})
		verdicts [racers][]netwide.StreamVerdict
		errs     [racers]error
	)
	for i := range racers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			trainBins := 0
			if i%2 == 1 {
				trainBins = raced.Bins()
			}
			verdicts[i], errs[i] = replay(raced, trainBins)
		}()
	}
	close(start)
	wg.Wait()
	for i := range racers {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(verdicts[i], verdicts[0]) {
			t.Fatalf("racer %d's verdicts differ from racer 0's", i)
		}
	}
	if err := raced.Detect(opts); err != nil {
		t.Fatal(err)
	}

	// Detect first, then one stream detector.
	batchFirst := fresh()
	if err := batchFirst.Detect(opts); err != nil {
		t.Fatal(err)
	}
	after, err := replay(batchFirst, batchFirst.Bins())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, verdicts[0]) {
		t.Fatal("stream verdicts depend on which surface fitted first")
	}
	if !reflect.DeepEqual(batchFirst.Events(), raced.Events()) {
		t.Fatal("batch events depend on which surface fitted first")
	}

	for _, run := range []*netwide.Run{raced, batchFirst} {
		ds := run.Dataset()
		for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
			got, err := ds.Fit(m, 0, eopts)
			if err != nil {
				t.Fatal(err)
			}
			if again, _ := ds.Fit(m, ds.Bins, eopts); again != got {
				t.Fatalf("%v: TrainBins 0 and Bins hold two models", m)
			}
			want, err := refFit(ds, m, eopts)
			if err != nil {
				t.Fatal(err)
			}
			if !sameState(got.State(), want.State()) {
				t.Fatalf("%v: shared model differs from a direct engine.Fit", m)
			}
		}
	}
}

var (
	smallRunOnce  sync.Once
	smallRunSaved []byte
	smallRunErr   error
)

// smallRunBytes is a saved 36-column week, simulated once per test binary
// (so -count=N races the fits, not the generator); each test loads fresh
// runs from it, with nothing fitted yet.
func smallRunBytes(t *testing.T) []byte {
	t.Helper()
	smallRunOnce.Do(func() {
		cfg := netwide.QuickConfig()
		cfg.Topology = "synthetic:6"
		cfg.MeanRateBps = 2e5
		cfg.Seed = 11
		var run *netwide.Run
		if run, smallRunErr = netwide.Simulate(cfg); smallRunErr != nil {
			return
		}
		var buf bytes.Buffer
		smallRunErr = run.Save(&buf)
		smallRunSaved = buf.Bytes()
	})
	if smallRunErr != nil {
		t.Fatal(smallRunErr)
	}
	return smallRunSaved
}

// refFit is the fit Detect ran before the dataset memoised it.
func refFit(ds *dataset.Dataset, m dataset.Measure, opts engine.Options) (*engine.Model, error) {
	return engine.Fit(ds.Matrix(m), opts)
}

// sameState compares two model states float by float on the bits.
func sameState(a, b engine.ModelState) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if a.Opts != b.Opts || a.Gen != b.Gen || a.Updates != b.Updates || a.N != b.N ||
		!eq([]float64{a.QLimit, a.T2Limit, a.TotalVar}, []float64{b.QLimit, b.T2Limit, b.TotalVar}) ||
		!eq(a.Mean, b.Mean) || !eq(a.Eigenvalues, b.Eigenvalues) || !eq(a.Components, b.Components) {
		return false
	}
	return true
}
