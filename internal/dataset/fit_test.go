package dataset

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"netwide/internal/engine"
	"netwide/internal/topology"
)

// refFit is the fit every site ran before Fit memoised it: engine.Fit on
// the measure's leading rows.
func refFit(d *Dataset, m Measure, rows int, opts engine.Options) (*engine.Model, error) {
	return engine.Fit(d.X[m].HeadRows(rows), opts)
}

var (
	smallOnce  sync.Once
	smallSaved []byte
	smallErr   error
)

// smallDataset is a 36-column week loaded fresh, with nothing fitted, from
// bytes generated once per test binary (so -count=N races the fits, not
// the generator).
func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	smallOnce.Do(func() {
		cfg := tinyConfig()
		if cfg.Topology, smallErr = topology.ParseRef("synthetic:6"); smallErr != nil {
			return
		}
		var d *Dataset
		if d, smallErr = Generate(cfg); smallErr != nil {
			return
		}
		var buf bytes.Buffer
		smallErr = d.Save(&buf)
		smallSaved = buf.Bytes()
	})
	if smallErr != nil {
		t.Fatal(smallErr)
	}
	d, err := Load(bytes.NewReader(smallSaved))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sameState compares two model states float by float on the bits, so a
// -0 or a NaN cannot pass for equal.
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

func TestFitOncePerDataset(t *testing.T) {
	d := smallDataset(t)
	opts := engine.DefaultOptions()

	t.Run("one model per key, equal to a direct fit", func(t *testing.T) {
		for m := Measure(0); m < NumMeasures; m++ {
			got, err := d.Fit(m, 0, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Every spelling of "the whole run" is one key.
			for _, rows := range []int{d.Bins, -1, d.Bins + 5, 0} {
				again, err := d.Fit(m, rows, opts)
				if err != nil || again != got {
					t.Fatalf("%v rows %d: model %p (err %v), first call gave %p", m, rows, again, err, got)
				}
			}
			want, err := refFit(d, m, d.Bins, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sameState(got.State(), want.State()) {
				t.Fatalf("%v: memoised model differs from a direct engine.Fit", m)
			}
		}
	})

	t.Run("a different key fits a different model", func(t *testing.T) {
		whole, err := d.Fit(Bytes, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		others := []struct {
			name string
			rows int
			opts engine.Options
		}{
			{"shorter training", 288, opts},
			{"other K", 0, engine.Options{K: 3, Alpha: opts.Alpha}},
			{"other alpha", 0, engine.Options{K: opts.K, Alpha: 0.01}},
		}
		for _, o := range others {
			got, err := d.Fit(Bytes, o.rows, o.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got == whole {
				t.Fatalf("%s: shares the whole-run model", o.name)
			}
			if again, _ := d.Fit(Bytes, o.rows, o.opts); again != got {
				t.Fatalf("%s: second call fitted again", o.name)
			}
			rows := o.rows
			if rows == 0 {
				rows = d.Bins
			}
			want, err := refFit(d, Bytes, rows, o.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sameState(got.State(), want.State()) {
				t.Fatalf("%s: memoised model differs from a direct engine.Fit", o.name)
			}
		}
		if other, _ := d.Fit(Packets, 0, opts); other == whole {
			t.Fatal("two measures share one model")
		}
	})

	t.Run("a failed fit is memoised too", func(t *testing.T) {
		bad := engine.Options{K: 0, Alpha: opts.Alpha}
		m1, err1 := d.Fit(Flows, 0, bad)
		m2, err2 := d.Fit(Flows, 0, bad)
		if m1 != nil || err1 == nil || err2 != err1 || m2 != nil {
			t.Fatalf("K=0: got (%p, %v) then (%p, %v), want one error twice", m1, err1, m2, err2)
		}
	})
}

// TestFitOncePerDatasetRacingFirstCalls: eight goroutines asking a fresh
// dataset for one model at once get one model, fitted once.
func TestFitOncePerDatasetRacingFirstCalls(t *testing.T) {
	d := smallDataset(t)
	opts := engine.DefaultOptions()
	const racers = 8
	var (
		wg     sync.WaitGroup
		start  = make(chan struct{})
		models [racers]*engine.Model
		errs   [racers]error
	)
	for i := range racers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			// Half ask for "every bin" by 0, half by the row count.
			rows := 0
			if i%2 == 1 {
				rows = d.Bins
			}
			models[i], errs[i] = d.Fit(Packets, rows, opts)
		}()
	}
	close(start)
	wg.Wait()
	for i := range racers {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if models[i] != models[0] {
			t.Fatalf("racer %d got model %p, racer 0 got %p", i, models[i], models[0])
		}
	}
	if n := len(d.fits.entries); n != 1 {
		t.Fatalf("%d memo entries after racing one key, want 1", n)
	}
	want, err := refFit(d, Packets, d.Bins, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sameState(models[0].State(), want.State()) {
		t.Fatal("raced model differs from a direct engine.Fit")
	}
}

// Fitted returns the model Fit holds for the key without fitting one: nil
// when no call has asked for it yet. It lets the external sites test see
// which keys a detection surface went through. Call it only when no Fit
// is in flight.
func (d *Dataset) Fitted(m Measure, trainBins int, opts engine.Options) *engine.Model {
	d.fits.mu.Lock()
	defer d.fits.mu.Unlock()
	e, ok := d.fits.entries[d.keyFor(m, trainBins, opts)]
	if !ok {
		return nil
	}
	return e.model
}
