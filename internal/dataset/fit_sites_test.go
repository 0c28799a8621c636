package dataset_test

import (
	"bytes"
	"sync"
	"testing"

	"netwide"
	"netwide/internal/dataset"
	"netwide/internal/engine"
	"netwide/internal/server"
	"netwide/internal/shootout"
)

// TestFitOncePerDatasetSites walks every surface that trains the subspace
// model — batch Detect, a StreamDetector at TrainBins 0 and at the run's
// length, a cold daemon, and the shootout's static, refit and incremental
// adapters — and checks each one goes through the dataset's Fit: run first
// on a fresh copy of the dataset, a surface leaves the model of its key
// behind; run after the others on a shared copy, it finds that model and
// leaves it in place.
func TestFitOncePerDatasetSites(t *testing.T) {
	saved := smallRunBytes(t)
	fresh := func() *netwide.Run {
		run, err := netwide.LoadRun(bytes.NewReader(saved))
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	shared := fresh()
	bins := shared.Bins()
	const shootoutTrain = 1008
	opts := engine.DefaultOptions()
	detectOpts := netwide.DetectOptions{K: opts.K, Alpha: opts.Alpha}
	stream := func(trainBins int) func(*netwide.Run) error {
		return func(run *netwide.Run) error {
			det, err := run.NewStreamDetector(detectOpts, netwide.StreamConfig{TrainBins: trainBins, BatchSize: 16})
			if err != nil {
				return err
			}
			det.Close()
			return det.Wait()
		}
	}
	subspace := func(s *shootout.Subspace) func(*netwide.Run) error {
		return func(run *netwide.Run) error {
			_, err := s.Run(run.Dataset(), shootoutTrain)
			return err
		}
	}
	sites := []struct {
		name string
		rows int // the training prefix the surface asks for
		run  func(*netwide.Run) error
	}{
		{"Detect", bins, func(run *netwide.Run) error { return run.Detect(detectOpts) }},
		{"stream TrainBins 0", bins, stream(0)},
		{"stream TrainBins Bins", bins, stream(bins)},
		{"cold server.New", bins, func(run *netwide.Run) error {
			srv, err := server.New(run, server.Config{
				Detect: detectOpts,
				Stream: netwide.StreamConfig{TrainBins: bins, BatchSize: 16},
			})
			if err != nil {
				return err
			}
			srv.Kill()
			return nil
		}},
		{"Subspace static", shootoutTrain, subspace(&shootout.Subspace{})},
		{"Subspace refit", shootoutTrain, subspace(&shootout.Subspace{RefitEvery: 144, Window: 288})},
		{"Subspace incremental", shootoutTrain, subspace(&shootout.Subspace{Updater: engine.UpdaterIncremental, Window: 288})},
	}

	type key struct {
		rows int
		m    dataset.Measure
	}
	first := map[key]*engine.Model{} // the shared dataset's model per key
	for _, s := range sites {
		t.Run(s.name, func(t *testing.T) {
			// First on a fresh dataset: the surface must leave its key's
			// models in the memo, one per measure.
			run := fresh()
			ds := run.Dataset()
			for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
				if ds.Fitted(m, s.rows, opts) != nil {
					t.Fatalf("%v fitted before the surface ran", m)
				}
			}
			if err := s.run(run); err != nil {
				t.Fatal(err)
			}
			for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
				if ds.Fitted(m, s.rows, opts) == nil {
					t.Fatalf("%v: the surface fitted outside the dataset's Fit", m)
				}
			}

			// After the other surfaces on one dataset: one model per key,
			// whichever surface fitted it.
			if err := s.run(shared); err != nil {
				t.Fatal(err)
			}
			for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
				got := shared.Dataset().Fitted(m, s.rows, opts)
				if want, ok := first[key{s.rows, m}]; !ok {
					first[key{s.rows, m}] = got
				} else if got != want {
					t.Fatalf("%v: model %p, the first surface on this key left %p", m, got, want)
				}
			}
		})
	}
}

var (
	smallRunOnce  sync.Once
	smallRunSaved []byte
	smallRunErr   error
)

// smallRunBytes is a saved 36-column week, simulated once per test binary;
// each subtest loads a fresh run from it, with nothing fitted yet.
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
