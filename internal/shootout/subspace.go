package shootout

import (
	"fmt"

	"netwide/internal/dataset"
	"netwide/internal/engine"
	"netwide/internal/mat"
)

// Subspace adapts the repo's subspace detection engine to the shootout
// interface. With RefitEvery == 0 it is the paper's static model: fit once
// on the training window, score everything after it. With RefitEvery > 0
// it periodically refits each measure's model on a rolling window of the
// most recent Window bins via engine.Model.Refit — the same code path the
// streaming pipeline's background refitter takes, but synchronous, so
// verdicts are bit-deterministic and fixture-safe. The refit variant is
// the one the contamination scenario poisons: anomalous bins absorbed
// into a refit window inflate the next generation's thresholds.
type Subspace struct {
	// Label is the detector name; empty picks "subspace" or
	// "subspace-refit" by RefitEvery.
	Label string
	// Opts configures the engine; the zero value means engine defaults
	// (k = 4, alpha = 0.001).
	Opts engine.Options
	// RefitEvery is the refit cadence in bins (0: never refit).
	RefitEvery int
	// Window is the rolling refit window length in bins; it must exceed
	// the OD-pair count for the engine's full-PCA path. Ignored when
	// RefitEvery == 0.
	Window int

	// LastRefitErr records the first refit failure of the latest Run, if
	// any. A failed refit is degraded operation, not a fatal error — the
	// detector keeps scoring on the previous generation, mirroring the
	// streaming pipeline's RefitErr semantics.
	LastRefitErr error
}

// Name returns the detector label.
func (s *Subspace) Name() string {
	if s.Label != "" {
		return s.Label
	}
	if s.RefitEvery > 0 {
		return "subspace-refit"
	}
	return "subspace"
}

// Run fits one model per measure on the training prefix and scores every
// later bin. The combined score is the worst statistic-to-threshold ratio
// across the three measures and both statistics (SPE and T²), so 1.0 is
// exactly the native alarm boundary; the blamed OD is the top residual OD
// of the measure that produced the combined score.
func (s *Subspace) Run(ds *dataset.Dataset, trainBins int) ([]BinVerdict, error) {
	s.LastRefitErr = nil
	opts := s.Opts
	if opts.K == 0 && opts.Alpha == 0 {
		opts = engine.DefaultOptions()
	}
	p := ds.NumODPairs()
	var models [dataset.NumMeasures]*engine.Model
	for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
		model, err := engine.Fit(ds.Matrix(m).HeadRows(trainBins), opts)
		if err != nil {
			return nil, fmt.Errorf("subspace: fit %v: %w", m, err)
		}
		models[m] = model
	}
	// Rolling refit windows, one ring per measure, seeded with the
	// training tail so the first refit already has a full window.
	var rings [dataset.NumMeasures]*ring
	if s.RefitEvery > 0 {
		if s.Window <= p {
			return nil, fmt.Errorf("subspace: refit window %d must exceed %d OD pairs", s.Window, p)
		}
		if s.Window > trainBins {
			return nil, fmt.Errorf("subspace: refit window %d exceeds %d training bins", s.Window, trainBins)
		}
		for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
			rings[m] = newRing(s.Window, p)
			for b := trainBins - s.Window; b < trainBins; b++ {
				rings[m].push(ds.Matrix(m).RowView(b))
			}
		}
	}
	verdicts := make([]BinVerdict, 0, ds.Bins-trainBins)
	sinceRefit := 0
	for bin := trainBins; bin < ds.Bins; bin++ {
		v := BinVerdict{Bin: bin, TopOD: -1}
		for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
			row := ds.Matrix(m).RowView(bin)
			pt, err := models[m].Score(row)
			if err != nil {
				return nil, fmt.Errorf("subspace: score %v bin %d: %w", m, bin, err)
			}
			qLimit, t2Limit := models[m].Limits()
			score := pt.SPE / qLimit
			if t2 := pt.T2 / t2Limit; t2 > score {
				score = t2
			}
			if score > v.Score {
				v.Score = score
				v.TopOD = pt.TopResidualOD
			}
			v.Alarm = v.Alarm || pt.SPEAlarm || pt.T2Alarm
			if rings[m] != nil {
				rings[m].push(row)
			}
		}
		verdicts = append(verdicts, v)
		if s.RefitEvery > 0 {
			if sinceRefit++; sinceRefit >= s.RefitEvery {
				sinceRefit = 0
				for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
					next, err := models[m].Refit(rings[m].snapshot())
					if err != nil {
						if s.LastRefitErr == nil {
							s.LastRefitErr = fmt.Errorf("subspace: refit %v after bin %d: %w", m, bin, err)
						}
						continue // degraded: keep the previous generation
					}
					models[m] = next
				}
			}
		}
	}
	return verdicts, nil
}

// ring is a fixed-size window of row copies in arrival order.
type ring struct {
	rows *mat.Matrix // window x p backing store
	next int
}

func newRing(window, p int) *ring { return &ring{rows: mat.New(window, p)} }

func (r *ring) push(row []float64) {
	copy(r.rows.RowView(r.next), row)
	r.next = (r.next + 1) % r.rows.Rows()
}

// snapshot copies the window out in a stable (storage) order. Row order
// does not affect a PCA fit, so the rotation offset is irrelevant.
func (r *ring) snapshot() *mat.Matrix { return r.rows.Clone() }
