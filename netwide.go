// Package netwide is a from-scratch reproduction of "Characterization of
// Network-Wide Anomalies in Traffic Flows" (Lakhina, Crovella, Diot; IMC
// 2004): the subspace method applied to origin-destination flow traffic of
// an Abilene-like backbone, together with the full measurement substrate
// the paper relied on — topology, routing, sampled NetFlow collection, OD
// aggregation — and a ground-truth anomaly injector standing in for the
// proprietary Abilene traces.
//
// The typical flow is three calls:
//
//	run, err := netwide.Simulate(netwide.DefaultConfig()) // build dataset
//	err = run.Detect(netwide.DefaultDetectOptions())      // subspace method
//	anoms := run.Characterize()                           // classify events
//
// Simulate generates the three sampled traffic matrices (bytes, packets,
// IP-flows per OD pair per 5-minute bin). Detect runs the subspace method
// (PCA separation, Q-statistic on the residual, Hotelling T² in the normal
// subspace) on each matrix, identifies the responsible OD flows per alarm
// and aggregates them into events. Characterize labels every event with
// the paper's taxonomy and matches it against the injected ground truth.
//
// For live operation StreamDetector runs the concurrent pipeline of
// internal/stream — per-measure scoring workers fed over channels, batched
// model application, a single ordered verdict stream, and rolling refits
// (warm-started from the previous model generation) that each lane runs
// between two bins, so the same input always meets the same generations.
// It runs the full
// characterization chain at streaming time: alarms are attributed to OD
// flows, aggregated into cross-measure events, and classified the moment an
// event closes, surfacing on StreamVerdict.Anomalies.
//
// There is one way to run the method. Detect is the streaming chain's own
// code applied to the whole run at once — internal/engine's Fit and
// ScoreBatch, identify.AttributeLive, the events.Aggregator — so a
// StreamDetector trained on every bin replays Detect bit for bit.
package netwide

import (
	"fmt"
	"io"
	"time"

	"netwide/internal/anomaly"
	"netwide/internal/classify"
	"netwide/internal/dataset"
	"netwide/internal/engine"
	"netwide/internal/events"
	"netwide/internal/identify"
	"netwide/internal/mat"
	"netwide/internal/scenario"
	"netwide/internal/topology"
	"netwide/internal/traffic"
)

// Config selects the scale and randomness of a simulated measurement run.
type Config struct {
	// Weeks of 5-minute-binned traffic to generate (the paper studied 4).
	Weeks int
	// Seed makes the whole run reproducible.
	Seed uint64
	// MeanRateBps is the network-wide mean offered load in bytes/second.
	MeanRateBps float64
	// SamplingRate is the packet sampling probability (the paper's
	// Abilene feed sampled 1%).
	SamplingRate float64
	// UnresolvedFraction of flow records fail OD resolution (paper: ~7%).
	UnresolvedFraction float64
	// Workers is the number of goroutines simulating timebins; <= 0 uses
	// every core (GOMAXPROCS). The simulated dataset is byte-identical for
	// every worker count — the knob trades only wall-clock time.
	Workers int
	// Topology selects the simulated backbone: "" or "abilene" (the
	// reference 11-PoP network), "geant" (a bundled 23-PoP European
	// backbone), or "synthetic:N[:seed]" (a deterministic random backbone
	// of N PoPs, N up to 200).
	Topology string
	// Scenario, when non-nil, replaces the default random anomaly schedule
	// with a declarative episode plan (see internal/scenario; JSON files
	// load via scenario.LoadFile).
	Scenario *scenario.Scenario
}

// DefaultConfig mirrors the paper's setup: 4 weeks at 1% sampling with 7%
// of records unresolved.
func DefaultConfig() Config {
	d := dataset.DefaultConfig()
	return Config{
		Weeks:              d.Weeks,
		Seed:               d.Seed,
		MeanRateBps:        d.MeanRateBps,
		SamplingRate:       d.SamplingRate,
		UnresolvedFraction: d.UnresolvedFraction,
	}
}

// QuickConfig is a 1-week, lower-volume run that generates in about a
// second — the right size for examples and tests.
func QuickConfig() Config {
	c := DefaultConfig()
	c.Weeks = 1
	c.MeanRateBps = 8e5
	return c
}

func (c Config) toDataset() (dataset.Config, error) {
	ref, err := topology.ParseRef(c.Topology)
	if err != nil {
		return dataset.Config{}, err
	}
	return dataset.Config{
		Weeks:              c.Weeks,
		Seed:               c.Seed,
		MeanRateBps:        c.MeanRateBps,
		SamplingRate:       c.SamplingRate,
		UnresolvedFraction: c.UnresolvedFraction,
		Workers:            c.Workers,
		Topology:           ref,
		Scenario:           c.Scenario,
	}, nil
}

// DetectOptions configures the subspace method.
type DetectOptions struct {
	// K is the normal subspace dimension (paper: 4).
	K int
	// Alpha is the false-alarm rate of the detection thresholds (paper:
	// 0.001, i.e. 99.9% confidence).
	Alpha float64
}

// DefaultDetectOptions returns the paper's parameters.
func DefaultDetectOptions() DetectOptions { return DetectOptions{K: 4, Alpha: 0.001} }

// Run holds one simulated measurement period and, after Detect, its
// analysis.
type Run struct {
	ds       *dataset.Dataset
	results  [dataset.NumMeasures]*measureResult
	evs      []events.Event
	verdicts []classify.Verdict
}

// measureResult is Detect's output for one traffic measure: every bin's
// verdict, the limits it was judged by, ‖x‖² (Figure 1's top row) and the
// attribution of every alarm.
type measureResult struct {
	points          []engine.Point
	state           []float64
	qLimit, t2Limit float64
	attribs         []identify.Attribution
}

// Simulate generates a dataset: background traffic shaped by a gravity
// model, diurnal/weekly profiles and an application mix, with the default
// anomaly schedule injected, measured through 1% packet sampling, NetFlow
// export and OD resolution. Timebins are generated in parallel on
// cfg.Workers goroutines (all cores when zero); the output is byte-identical
// for every worker count.
func Simulate(cfg Config) (*Run, error) {
	dcfg, err := cfg.toDataset()
	if err != nil {
		return nil, err
	}
	ds, err := dataset.Generate(dcfg)
	if err != nil {
		return nil, err
	}
	return &Run{ds: ds}, nil
}

// Save serializes the run's dataset (matrices + generating configuration).
func (r *Run) Save(w io.Writer) error { return r.ds.Save(w) }

// LoadRun reads a dataset previously written with Save.
func LoadRun(rd io.Reader) (*Run, error) {
	ds, err := dataset.Load(rd)
	if err != nil {
		return nil, err
	}
	return &Run{ds: ds}, nil
}

// Dataset exposes the underlying dataset for advanced use (attribute
// regeneration, raw matrices).
func (r *Run) Dataset() *dataset.Dataset { return r.ds }

// Bins returns the number of timebins in the run.
func (r *Run) Bins() int { return r.ds.Bins }

// Detect runs the subspace method on all three traffic matrices,
// identifies the OD flows behind each alarm, and aggregates detections
// into events.
func (r *Run) Detect(opts DetectOptions) error {
	if opts.K == 0 {
		opts = DefaultDetectOptions()
	}
	var dets []events.Detection
	for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
		model, err := r.ds.Fit(m, r.ds.Bins, engine.Options{K: opts.K, Alpha: opts.Alpha})
		if err != nil {
			return fmt.Errorf("netwide: analyze %v: %w", m, err)
		}
		res, err := detect(r.ds.Matrix(m), model)
		if err != nil {
			return fmt.Errorf("netwide: analyze %v: %w", m, err)
		}
		r.results[m] = res
		dets = appendDetections(dets, m, res.attribs)
	}
	r.evs = events.Aggregate(dets)
	r.verdicts = nil
	return nil
}

// detect runs the chain over one measure's matrix with the model fitted
// on every bin: one ScoreBatch over every bin, and AttributeLive on each
// alarmed bin — what the streaming lanes run bin by bin.
func detect(x *mat.Matrix, model *engine.Model) (*measureResult, error) {
	rows := make([][]float64, x.Rows())
	for j := range rows {
		rows[j] = x.RowView(j)
	}
	res := &measureResult{state: make([]float64, len(rows))}
	var err error
	if res.points, err = model.ScoreBatch(rows, nil); err != nil {
		return nil, err
	}
	res.qLimit, res.t2Limit = model.Limits()
	for j, row := range rows {
		res.state[j] = mat.Dot(row, row)
		atts, err := identify.AttributeLive(model, j, row, res.points[j])
		if err != nil {
			return nil, err
		}
		res.attribs = append(res.attribs, atts...)
	}
	return res, nil
}

// appendDetections casts one measure's attributions as detections for the
// event aggregator.
func appendDetections(dets []events.Detection, m dataset.Measure, atts []identify.Attribution) []events.Detection {
	for _, att := range atts {
		dets = append(dets, events.Detection{Measure: m, Bin: att.Alarm.Bin, ODs: att.ODs, Residuals: att.Residuals})
	}
	return dets
}

// Events returns the aggregated detection events (nil before Detect).
func (r *Run) Events() []events.Event { return r.evs }

// Anomaly is a classified, ground-truth-matched detection event.
type Anomaly struct {
	// Class is the taxonomy label (ALPHA, DOS, ..., UNKNOWN, FALSE-ALARM).
	Class string
	// Measures is the traffic-type combination (B, F, P, BP, FP, BFP...).
	Measures string
	// StartBin and EndBin delimit the event (5-minute bins, inclusive).
	StartBin, EndBin int
	// Duration of the event.
	Duration time.Duration
	// ODs lists the OD pairs involved, as "ORIG->DEST" strings.
	ODs []string
	// Why is the classifier's one-line justification.
	Why string
	// Truth describes the matched injected anomaly ("" when unmatched).
	Truth string
	// TruthType is the injected type label ("" when unmatched).
	TruthType string
}

// Characterize classifies every event (running Detect first if needed is
// the caller's responsibility) and matches each against the injected
// ground truth.
func (r *Run) Characterize() []Anomaly {
	if r.verdicts == nil {
		cl := classify.New(r.ds)
		for _, ev := range r.evs {
			r.verdicts = append(r.verdicts, cl.Classify(ev))
		}
	}
	specs := r.ds.Ledger.Specs()
	out := make([]Anomaly, 0, len(r.verdicts))
	for _, v := range r.verdicts {
		out = append(out, r.anomalyFromVerdict(v, specs))
	}
	return out
}

// anomalyFromVerdict converts one classification verdict into the public
// Anomaly, matching it against the injected ground truth — shared by the
// batch Characterize and the streaming characterization chain.
func (r *Run) anomalyFromVerdict(v classify.Verdict, specs []anomaly.Spec) Anomaly {
	a := Anomaly{
		Class:    v.Class.String(),
		Measures: v.Event.Measures.String(),
		StartBin: v.Event.StartBin,
		EndBin:   v.Event.EndBin,
		Duration: time.Duration(v.Event.DurationBins()) * traffic.BinSeconds * time.Second,
		Why:      v.Why,
	}
	for _, od := range v.Event.ODs {
		a.ODs = append(a.ODs, r.ds.ODName(od))
	}
	if spec, ok := r.matchTruth(v.Event, specs); ok {
		a.Truth = spec.Note
		a.TruthType = spec.Type.String()
	}
	return a
}

// Verdicts exposes the raw classification verdicts (internal types) for
// the experiment harness.
func (r *Run) Verdicts() []classify.Verdict {
	r.Characterize()
	return r.verdicts
}

// matchTruth finds an injected spec overlapping the event in time (±1 bin)
// and space.
func (r *Run) matchTruth(ev events.Event, specs []anomaly.Spec) (anomaly.Spec, bool) {
	for _, s := range specs {
		if ev.EndBin < s.StartBin-1 || ev.StartBin > s.EndBin+1 {
			continue
		}
		for _, od := range ev.ODs {
			pair := r.ds.ODAt(od)
			for _, sod := range s.ODs {
				if pair == sod {
					return s, true
				}
			}
		}
	}
	return anomaly.Spec{}, false
}

// Truth describes one injected ground-truth anomaly.
type Truth struct {
	ID               int
	Type             string
	StartBin, EndBin int
	ODs              []string
	Note             string
}

// GroundTruth lists the injected anomalies of the run.
func (r *Run) GroundTruth() []Truth {
	specs := r.ds.Ledger.Specs()
	out := make([]Truth, len(specs))
	for i, s := range specs {
		t := Truth{ID: s.ID, Type: s.Type.String(), StartBin: s.StartBin, EndBin: s.EndBin, Note: s.Note}
		for _, od := range s.ODs {
			t.ODs = append(t.ODs, r.ds.Top.ODName(od))
		}
		out[i] = t
	}
	return out
}

// FormatBin renders a bin index as "day N hh:mm" (bin 0 = Monday 00:00).
func FormatBin(bin int) string {
	day := bin / traffic.BinsPerDay
	rem := bin % traffic.BinsPerDay
	return fmt.Sprintf("day %d %02d:%02d", day+1, rem/traffic.BinsPerHour, (rem%traffic.BinsPerHour)*5)
}
