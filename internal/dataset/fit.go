package dataset

import (
	"sync"

	"netwide/internal/engine"
	"netwide/internal/routing"
)

// fitKey names one fitted model of a dataset: the measure, how many
// leading bins it trained on, and the method's parameters.
type fitKey struct {
	m    Measure
	rows int
	opts engine.Options
}

// fitEntry is one key's model, fitted by whichever caller gets there first.
type fitEntry struct {
	once  sync.Once
	model *engine.Model
	err   error
}

// fits memoises Fit. The zero value is ready to use.
type fits struct {
	mu      sync.Mutex
	entries map[fitKey]*fitEntry
}

// Fit returns the subspace model of measure m trained on the dataset's
// leading trainBins bins (every bin when trainBins is not in (0, Bins]).
// The model is a pure function of those rows and opts, and the matrices do
// not change after Generate or Load, so it is fitted once per dataset:
// every later call with the same measure, effective row count and options
// returns the same immutable *engine.Model (or the same error). Concurrent
// first calls for one key wait for one fit; calls for different keys fit
// in parallel.
func (d *Dataset) Fit(m Measure, trainBins int, opts engine.Options) (*engine.Model, error) {
	key := d.keyFor(m, trainBins, opts)
	d.fits.mu.Lock()
	e, ok := d.fits.entries[key]
	if !ok {
		if d.fits.entries == nil {
			d.fits.entries = make(map[fitKey]*fitEntry)
		}
		e = new(fitEntry)
		d.fits.entries[key] = e
	}
	d.fits.mu.Unlock()
	e.once.Do(func() {
		e.model, e.err = engine.Fit(d.X[m].HeadRows(key.rows), opts)
	})
	return e.model, e.err
}

// Resolver returns the dataset's one longest-prefix-match resolver, built
// from its topology with no routing overrides, which the generator maps
// every record's destination through. It is shared and must not be
// modified. Its lookups (ResolveSrc, ResolveDst) simulate no resolution
// failures: the generator draws those itself, at Cfg.UnresolvedFraction,
// so only Resolve with a non-nil rng would drop records at that rate.
func (d *Dataset) Resolver() *routing.Resolver { return d.resolver }

// keyFor names Fit's model for the arguments, reading a training length
// outside (0, Bins] as every bin.
func (d *Dataset) keyFor(m Measure, trainBins int, opts engine.Options) fitKey {
	if trainBins <= 0 || trainBins > d.Bins {
		trainBins = d.Bins
	}
	return fitKey{m: m, rows: trainBins, opts: opts}
}
