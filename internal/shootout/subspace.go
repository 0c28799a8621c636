package shootout

import (
	"fmt"

	"netwide/internal/dataset"
	"netwide/internal/engine"
)

// Subspace adapts the repo's subspace detection engine to the shootout
// interface: one engine.Updater per measure — the model lifecycle the
// streaming pipeline runs — driven synchronously, so verdicts are
// bit-deterministic and fixture-safe.
//
// Under the refit lifecycle (Updater "" or engine.UpdaterRefit) with
// RefitEvery == 0 it is the paper's static model: fit once on the training
// window, score everything after it. With RefitEvery > 0 each measure's
// model is refitted on a rolling window of the most recent Window bins
// (seeded from the training tail, so the first refit already has a full
// window) — the variant the contamination scenario poisons: anomalous bins
// absorbed into a refit window inflate the next generation's thresholds.
//
// Under engine.UpdaterIncremental the subspace is seeded by the training
// fit and then tracked with one CCIPCA rank-1 update per evaluated bin,
// thresholds re-derived from streaming residual moments, so the scoring
// model is never more than one bin stale; Window is the tracker's
// forgetting horizon, and RefitEvery > 0 adds the lifecycle's periodic
// drift-correction refits. The tracker absorbs poisoned bins gradually
// instead of swallowing a whole contaminated window at a refit boundary.
type Subspace struct {
	// Label is the detector name; empty picks "subspace-incremental",
	// "subspace-refit" or "subspace" by Updater and RefitEvery.
	Label string
	// Updater selects the model lifecycle; "" means engine.UpdaterRefit.
	Updater engine.UpdaterKind
	// Opts configures the engine; the zero value means engine defaults
	// (k = 4, alpha = 0.001).
	Opts engine.Options
	// RefitEvery is the full-refit cadence in bins (0: never refit).
	RefitEvery int
	// Window is the rolling refit window length in bins and, under the
	// incremental lifecycle, the tracker's forgetting horizon (0: the
	// training bin count). It must exceed the OD-pair count; under the
	// refit lifecycle it is ignored when RefitEvery == 0.
	Window int

	// LastRefitErr records the first model-update failure of the latest
	// Run, if any. A failed refit or fold is degraded operation, not a fatal
	// error — the detector keeps scoring on the previous model, mirroring
	// the streaming pipeline's RefitErr semantics.
	LastRefitErr error
}

// Name returns the detector label.
func (s *Subspace) Name() string {
	switch {
	case s.Label != "":
		return s.Label
	case s.Updater == engine.UpdaterIncremental:
		return "subspace-incremental"
	case s.RefitEvery > 0:
		return "subspace-refit"
	}
	return "subspace"
}

// Run takes one model per measure fitted on the training prefix (the
// dataset's Fit: the static, refit and incremental variants of one
// scenario share it) and walks every later bin: score it on the current
// model, then engine.Advance the lifecycle, which refits a due window and
// installs the result before the next bin — the streaming pipeline's lane
// loop, one bin at a time. The combined score is the worst
// statistic-to-threshold ratio across the three measures and both
// statistics (SPE and T²), so 1.0 is exactly the native alarm boundary;
// the blamed OD is the top residual OD of the measure that produced the
// combined score.
func (s *Subspace) Run(ds *dataset.Dataset, trainBins int) ([]BinVerdict, error) {
	s.LastRefitErr = nil
	if trainBins <= 0 || trainBins > ds.Bins {
		// Fit reads a bin count outside the run as "every bin"; the
		// shootout's training prefix must be a real one.
		return nil, fmt.Errorf("training prefix %d outside (0,%d]", trainBins, ds.Bins)
	}
	opts := s.Opts
	if opts.K == 0 && opts.Alpha == 0 {
		opts = engine.DefaultOptions()
	}
	kind, err := engine.ParseUpdaterKind(string(s.Updater))
	if err != nil {
		return nil, err
	}
	cfg := engine.UpdaterConfig{RefitEvery: s.RefitEvery, Window: s.Window}
	if kind == engine.UpdaterRefit {
		switch {
		case s.RefitEvery == 0:
			cfg.Window = 0 // the static model keeps no window
		case s.Window > trainBins:
			// The first refit's window is seeded from the training tail.
			return nil, fmt.Errorf("refit window %d exceeds %d training bins", s.Window, trainBins)
		}
	}
	var ups [dataset.NumMeasures]engine.Updater
	for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
		model, err := ds.Fit(m, trainBins, opts)
		if err != nil {
			return nil, fmt.Errorf("fit %v: %w", m, err)
		}
		if ups[m], err = engine.NewUpdater(kind, model, cfg); err != nil {
			return nil, fmt.Errorf("%v: %w", m, err)
		}
	}
	verdicts := make([]BinVerdict, 0, ds.Bins-trainBins)
	for bin := trainBins; bin < ds.Bins; bin++ {
		v := BinVerdict{Bin: bin, TopOD: -1}
		for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
			row := ds.Matrix(m).RowView(bin)
			model := ups[m].Model()
			pt, err := model.Score(row)
			if err != nil {
				return nil, fmt.Errorf("score %v bin %d: %w", m, bin, err)
			}
			qLimit, t2Limit := model.Limits()
			score := pt.SPE / qLimit
			if t2 := pt.T2 / t2Limit; t2 > score {
				score = t2
			}
			if score > v.Score {
				v.Score = score
				v.TopOD = pt.TopResidualOD
			}
			v.Alarm = v.Alarm || pt.SPEAlarm || pt.T2Alarm
			if err := engine.Advance(ups[m], row, nil); err != nil {
				s.degrade(fmt.Errorf("%v bin %d: %w", m, bin, err))
			}
		}
		verdicts = append(verdicts, v)
	}
	return verdicts, nil
}

// degrade records the first model-update failure of a Run.
func (s *Subspace) degrade(err error) {
	if s.LastRefitErr == nil {
		s.LastRefitErr = err
	}
}
