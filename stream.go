package netwide

import (
	"errors"
	"fmt"
	"iter"
	"sync"

	"netwide/internal/anomaly"
	"netwide/internal/classify"
	"netwide/internal/dataset"
	"netwide/internal/engine"
	"netwide/internal/events"
	"netwide/internal/fault"
	"netwide/internal/identify"
	"netwide/internal/mat"
)

// StreamConfig tunes the concurrent streaming detector.
type StreamConfig struct {
	// TrainBins is how many leading bins of the run train the per-measure
	// models (0 = all bins).
	TrainBins int
	// BatchSize is the most vectors scored per model application: the
	// upper bound a backlogged detector fills (default 16). An idle one
	// scores each bin as it arrives, so a larger value never delays a
	// verdict, and the verdicts do not depend on it. It also sets how far
	// Submit may run ahead of a consumer that has stopped reading: each
	// lane's input and output channel hold depthPerBatch batches.
	BatchSize int
	// Updater selects the model lifecycle: "refit" (or "") for the
	// generation-swap default, "incremental" for per-bin subspace tracking
	// (the scoring model absorbs every bin it scores).
	Updater string
	// RefitEvery is the number of streamed bins between full model refits
	// (0 disables them). Refit windows start pre-seeded from the training
	// bins, and each refit is warm-started from the previous model
	// generation's subspace basis. A lane runs a due refit before it scores
	// its next bin, so the bin after every RefitEvery-th is the new
	// generation's first. Under the incremental updater this is the
	// drift-correction fallback cadence.
	RefitEvery int
	// Window is the rolling training window for refits, in bins; it must
	// exceed the OD-pair count when RefitEvery > 0. Under the incremental
	// updater it doubles as the tracker's forgetting horizon.
	Window int
	// Faults, when non-nil, threads error injection through the lanes'
	// refits (see FaultRefit). Nil in production.
	Faults *fault.Injector
}

// FaultRefit is the injection point a lane consults before every refit
// fit, once it has scored the bins it holds: arm a Delay for a slow refit
// (the lane's later bins wait it out), an Err for a failing one.
const FaultRefit = "stream.refit"

// depthPerBatch is each lane channel's depth in batches: an input and an
// output channel of 10·BatchSize let Submit run 20·BatchSize+1 bins ahead
// of a consumer that reads nothing (TestSubmitDepth pins the floor).
const depthPerBatch = 10

// SetMathWorkers tunes the process-wide linear-algebra goroutine pool that
// batch scoring, model fits and refits all draw from (default
// GOMAXPROCS; n < 1 resets to it). It returns the previous setting. The
// pool is global state shared by every detector in the process, which is
// why it is an explicit call rather than a per-detector option.
func SetMathWorkers(n int) int { return mat.SetWorkers(n) }

// DefaultStreamConfig trains on the first week, scores in batches of up to
// 16, and refits nightly on a rolling one-week window.
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{
		TrainBins:  7 * 288, // one week of 5-minute bins
		BatchSize:  16,
		RefitEvery: 288, // daily
		Window:     7 * 288,
	}
}

// WithDefaults applies DefaultStreamConfig when every tuning knob is zero.
// Updater and Faults ride along either way — they select behavior rather
// than tune it, so setting only them still gets the default cadences (an
// incremental detector then runs daily drift corrections on a one-week
// horizon).
func (c StreamConfig) WithDefaults() StreamConfig {
	if c.BatchSize == 0 && c.RefitEvery == 0 && c.Window == 0 && c.TrainBins == 0 {
		def := DefaultStreamConfig()
		def.Updater, def.Faults = c.Updater, c.Faults
		return def
	}
	return c
}

// updaterConfig is the model-lifecycle tuning c implies.
func (c StreamConfig) updaterConfig() engine.UpdaterConfig {
	return engine.UpdaterConfig{RefitEvery: c.RefitEvery, Window: c.Window}
}

// StreamVerdict is the merged verdict for one streamed 5-minute bin across
// the three traffic measures.
type StreamVerdict struct {
	// Bin is the caller-supplied bin index.
	Bin int
	// Points holds the per-measure statistics, indexed by dataset order
	// (B, P, F).
	Points [dataset.NumMeasures]OnlinePoint
	// Measures concatenates, in dataset order, the single-letter codes of
	// the measures that alarmed ("" when the bin is clean, "BPF" when all
	// three fired).
	Measures string
	// Generations records, per measure, which model generation scored the
	// bin (0 = initial fit; each adopted full refit increments it).
	Generations [dataset.NumMeasures]uint64
	// Anomalies lists the fully characterized anomalies that CLOSED at
	// this bin: alarms are attributed to OD flows against the scoring
	// model generation, aggregated across measures and time, and an event
	// is classified and matched against ground truth as soon as no later
	// bin can extend it. An event spanning bins [s, e] therefore surfaces
	// on the first verdict past e+1; events still open when the stream
	// ends are delivered by TailAnomalies (Replay folds them onto its
	// final verdict). Nil on most bins.
	Anomalies []Anomaly
	// Checkpoint is non-nil on a barrier verdict — the answer to a
	// Checkpoint call, delivered in the verdict stream exactly where the
	// call fell among the Submits: every verdict before it has been
	// received, none after it has been started. A barrier verdict scores
	// nothing (Bin is -1, the rest zero); Token is the caller's own.
	Checkpoint *StreamCheckpoint
	Token      any
}

// Alarm reports whether any measure flagged the bin.
func (v StreamVerdict) Alarm() bool { return v.Measures != "" }

// OnlinePoint is one measure's verdict for one streamed 5-minute traffic
// vector.
type OnlinePoint struct {
	// SPE and T2 are the two subspace statistics for the vector.
	SPE, T2 float64
	// SPEAlarm / T2Alarm report threshold exceedance.
	SPEAlarm, T2Alarm bool
	// TopOD names the OD pair with the largest residual, the first place
	// an operator should look when an alarm fires.
	TopOD string
}

// StreamCheckpoint is the StreamDetector's full recovery state, captured
// at a consistent point in the submission order by a Checkpoint barrier:
// every verdict before the point has been characterized and delivered,
// nothing after it has started. All fields are plain data, no live pointers,
// so the snapshot can cross a process boundary; internal/checkpoint's codec
// writes them field by field, and a field added here needs a line there
// (its TestCodecRoundTripsEveryField fails until it has one).
type StreamCheckpoint struct {
	// Lanes[m] is measure m's full model-lifecycle state: the scoring
	// model's parameters, the rolling refit window (deep-copied rows, oldest
	// first; nil when full refits are disabled), the bins accrued toward the
	// next refit, and the incremental tracker's vectors when that lifecycle
	// is running.
	Lanes []engine.UpdaterState
	// Agg is the event aggregator mid-state: anomalies still open (they
	// may yet extend) plus the buffered current bin.
	Agg events.AggregatorState
	// LastBin/Started restore Submit's bin-ordering guard.
	LastBin int
	Started bool
	// Emitted is the cumulative count of anomalies delivered on verdicts
	// before the snapshot point (across restores): a consumer mirroring
	// anomalies into a ledger holds exactly this many when the barrier
	// verdict reaches it.
	Emitted uint64
}

// StreamDetector scores live traffic across all three measures
// concurrently and runs the paper's full characterization chain on the
// result — the "practical, online diagnosis" its conclusion calls for.
//
// Each measure has one lane: a goroutine that owns the measure's model
// lifecycle (engine.Updater) and reads its bins from a channel Submit
// writes. A lane scores whatever has queued up, at most BatchSize vectors
// at a time (engine.Model.ScoreBatch; a lane whose queue is empty scores
// the bin it holds rather than wait for more), attributes every alarm to
// its OD flows against the model generation that scored it
// (identify.AttributeLive), and answers in submission order on its own
// output channel. It then folds the bin into the lifecycle
// (engine.Advance): under the refit lifecycle every RefitEvery-th bin hands
// back a window, and the lane scores what it holds, fits the window and
// installs the new generation before it takes the next bin; under the
// incremental one every bin moves the model, so the lane scores each bin
// alone before the model absorbs it. Which generation scores which bin is
// therefore a function of the input alone.
//
// Verdicts zips the lanes' answers and, on the consumer's own goroutine,
// turns the per-measure alarm attributions into detections, merges them
// into events across measures and time, and classifies and
// ground-truth-matches each event the moment it closes, delivering the
// results on StreamVerdict.Anomalies. A detector runs one goroutine per
// lane and nothing else. Run.Detect + Run.Characterize run this chain's
// own code over the whole run at once, so a detector trained on every bin
// replays them bit for bit.
type StreamDetector struct {
	run     *Run
	cfg     StreamConfig
	lanes   []*lane
	workers sync.WaitGroup
	// batchHook, when non-nil, sees the size of every batch a lane is about
	// to score. Tests set it before the first Submit; nil in production.
	batchHook func(n int)

	// mu serializes Submit, Checkpoint and Close, so every lane receives
	// the submissions in one order, a closed input channel is never sent
	// on, and the bin-order cursor (lastBin, started) is checked and
	// advanced atomically with the send.
	mu      sync.Mutex
	closed  bool
	lastBin int
	started bool

	errMu sync.Mutex
	err   error // first fatal failure (scoring or attribution)
	// refitErr is the first model-update failure — a failed full refit, a
	// failed incremental fold or an unconverged fit. It is kept apart from
	// err because the detector is then DEGRADED (scoring continues,
	// correctly, on the previous model), while a scoring failure means the
	// verdicts themselves are bad.
	refitErr error

	// The verdict consumer's state, touched only inside Verdicts (and by
	// TailAnomalies once the sequence has ended). agg is the incremental
	// cross-measure event aggregator — empty on a fresh start, rebuilt on a
	// restore. emitted counts anomalies delivered on verdicts so far,
	// cumulative across restores; a checkpoint carries the value as of its
	// barrier. tailEvents holds the events still open when the stream
	// ended, flushed but not yet classified, and cl the classifier that
	// will do it.
	agg        *events.Aggregator
	emitted    uint64
	tailEvents []events.Event
	cl         *classify.Classifier
	tailOnce   sync.Once
	tail       []Anomaly
}

// lane is one measure's worker: its model lifecycle (the updater owns the
// scoring model, the rolling window and any tracker state) and its input
// and output channels.
type lane struct {
	up  engine.Updater
	in  chan laneTask
	out chan laneResult // one result per task, in task order
	p   int             // vector length the lane's model scores
}

// laneTask is one bin's vector en route to a lane, or a checkpoint: cp
// non-nil, the lane captures its state into its slot of cp.Lanes, and
// token rides along to the barrier verdict.
type laneTask struct {
	bin   int
	x     []float64
	cp    *StreamCheckpoint
	token any
}

// laneResult is a lane's answer to one task: the scoring (OnlinePoint's
// fields, the top residual still an index), the generation that scored it
// and the alarm attributions; a checkpoint task comes back as it went in.
type laneResult struct {
	laneTask
	pt  engine.Point
	gen uint64
	att []identify.Attribution
}

// NewStreamDetector assembles the concurrent detector around one model per
// traffic measure trained on the run's leading cfg.TrainBins bins (every
// bin when TrainBins is 0 or beyond the run), each wrapped in the
// lifecycle cfg.Updater selects. The models come from the dataset's Fit, so
// a detector on an already-fitted run (a second daemon, or one after
// Detect) starts without fitting; training reads the matrices through
// no-copy views, which the engine retains as the seed window for refits, so
// the first refit is due after RefitEvery bins rather than after a full
// window of live traffic.
func (r *Run) NewStreamDetector(opts DetectOptions, cfg StreamConfig) (*StreamDetector, error) {
	if opts.K == 0 {
		opts = DefaultDetectOptions()
	}
	cfg = cfg.WithDefaults()
	ups := make([]engine.Updater, dataset.NumMeasures)
	for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
		model, err := r.ds.Fit(m, cfg.TrainBins, engine.Options{K: opts.K, Alpha: opts.Alpha})
		if err != nil {
			return nil, fmt.Errorf("netwide: stream train %v: %w", m, err)
		}
		if ups[m], err = engine.NewUpdater(engine.UpdaterKind(cfg.Updater), model, cfg.updaterConfig()); err != nil {
			return nil, fmt.Errorf("netwide: stream %v lane: %w", m, err)
		}
	}
	return newStreamDetector(r, ups, cfg), nil
}

// RestoreStreamDetector rebuilds a streaming detector from a checkpoint:
// each lane's model is reassembled from its serialized parameters (no
// refit — a restored model scores bit-identically to the one that was
// snapshotted), the refit windows and phases resume where they were, and
// the event aggregator reopens the anomalies that were still extendable.
// Fed the bins after the checkpoint's barrier, the restored detector
// characterizes them exactly as the uninterrupted detector would have.
// The model options (K, Alpha) ride inside the checkpoint; cfg supplies
// the detector tuning, which must match the original run's for refit
// windows to restore (Window may not shrink below a captured window), and
// its lifecycle must be the one the lane states were captured under.
func (r *Run) RestoreStreamDetector(cp StreamCheckpoint, cfg StreamConfig) (*StreamDetector, error) {
	cfg = cfg.WithDefaults()
	if len(cp.Lanes) != int(dataset.NumMeasures) {
		return nil, fmt.Errorf("netwide: checkpoint has %d lanes, want %d", len(cp.Lanes), dataset.NumMeasures)
	}
	ups, err := restoreLanes(cp.Lanes, r.ds.NumODPairs(), cfg)
	if err != nil {
		return nil, err
	}
	agg, err := events.RestoreAggregator(cp.Agg)
	if err != nil {
		return nil, fmt.Errorf("netwide: restore aggregator: %w", err)
	}
	d := newStreamDetector(r, ups, cfg)
	d.agg, d.emitted = agg, cp.Emitted
	d.lastBin, d.started = cp.LastBin, cp.Started
	return d, nil
}

// restoreLanes validates captured lane states against the vector length p
// and the configured lifecycle, and reassembles their updaters.
func restoreLanes(states []engine.UpdaterState, p int, cfg StreamConfig) ([]engine.Updater, error) {
	want, err := engine.ParseUpdaterKind(cfg.Updater)
	if err != nil {
		return nil, fmt.Errorf("netwide: %w", err)
	}
	ups := make([]engine.Updater, len(states))
	for i, st := range states {
		m := dataset.Measure(i)
		if n := len(st.Model.Mean); n != p {
			return nil, fmt.Errorf("netwide: restored %v model scores %d OD pairs, run has %d", m, n, p)
		}
		if st.Kind != want {
			return nil, fmt.Errorf("netwide: %v lane state was captured under the %q updater but the detector is configured for %q", m, st.Kind, want)
		}
		if ups[i], err = engine.RestoreUpdater(st, cfg.updaterConfig()); err != nil {
			return nil, fmt.Errorf("netwide: restore %v lane: %w", m, err)
		}
	}
	return ups, nil
}

// newStreamDetector starts one lane per lifecycle — the shared tail of
// NewStreamDetector and RestoreStreamDetector. A lane whose model stopped
// short of convergence marks the detector degraded from the start.
func newStreamDetector(r *Run, ups []engine.Updater, cfg StreamConfig) *StreamDetector {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	d := &StreamDetector{run: r, cfg: cfg, agg: events.NewAggregator()}
	depth := depthPerBatch * cfg.BatchSize
	for i, up := range ups {
		if err := up.Model().FitWarning(); err != nil {
			d.failRefit(fmt.Errorf("netwide: lane %d fit: %w", i, err))
		}
		l := &lane{up: up, in: make(chan laneTask, depth), out: make(chan laneResult, depth), p: up.Model().P()}
		d.lanes = append(d.lanes, l)
		d.workers.Add(1)
		go d.laneWorker(i, l)
	}
	return d
}

// fail records the first fatal background error. Later errors are
// dropped: the first failure is the root cause, everything after it is
// fallout.
func (d *StreamDetector) fail(err error) {
	d.errMu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.errMu.Unlock()
}

// failRefit records the first model-update failure — the degraded (not
// fatal) condition.
func (d *StreamDetector) failRefit(err error) {
	d.errMu.Lock()
	if d.refitErr == nil {
		d.refitErr = err
	}
	d.errMu.Unlock()
}

// Submit feeds one 5-minute bin: the byte, packet and IP-flow vectors, each
// of NumODPairs per-OD values. Bins must be submitted in time order
// (non-decreasing) — the cross-bin event aggregation depends on it, so a
// bin earlier than its predecessor is rejected here — and every value must
// be one a model may hold (engine.Restorable: no NaN, no infinity, nothing
// beyond ±engine.MaxRestored), since one such value would stall a lane's
// lifecycle for as long as it sits in the refit window or the tracker.
// The detector retains the slices, so callers streaming from a reused
// buffer must copy first. Verdicts come back in submission order on
// Verdicts. Submit blocks when a lane's input channel is full:
// 20·BatchSize+1 bins ahead of a verdict consumer that has stopped reading.
func (d *StreamDetector) Submit(bin int, bytes, packets, flows []float64) error {
	return d.submit(bin, bytes, packets, flows)
}

// submit is Submit for any number of lanes: one vector per lane.
func (d *StreamDetector) submit(bin int, vecs ...[]float64) error {
	for i, x := range vecs {
		if len(x) != d.lanes[i].p {
			return fmt.Errorf("netwide: bin %d %v vector length %d, want %d", bin, dataset.Measure(i), len(x), d.lanes[i].p)
		}
		for od, v := range x {
			if !engine.Restorable(v) {
				return fmt.Errorf("netwide: bin %d %v value %v at OD %d is not a traffic volume (NaN, infinite or beyond ±%g)", bin, dataset.Measure(i), v, od, engine.MaxRestored)
			}
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("netwide: submit after Close")
	}
	if d.started && bin < d.lastBin {
		return fmt.Errorf("netwide: bin %d submitted after bin %d (bins must be non-decreasing)", bin, d.lastBin)
	}
	for i, l := range d.lanes {
		l.in <- laneTask{bin: bin, x: vecs[i]}
	}
	d.started, d.lastBin = true, bin
	return nil
}

// Checkpoint asks for the detector's full recovery state at this point in
// the submission order: it sends a barrier to every lane behind every bin
// submitted so far and returns without waiting for it (it blocks only as
// Submit does, when a lane's queue is full). Each lane captures its state
// once it has scored everything before the barrier, and the barrier comes
// out of Verdicts as a StreamVerdict whose Checkpoint field holds the state
// and whose Token is the one given here — after every verdict submitted
// before the call and before any submitted after it. Serializes with
// concurrent Submits; fails after Close.
func (d *StreamDetector) Checkpoint(token any) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("netwide: checkpoint after Close")
	}
	cp := &StreamCheckpoint{
		Lanes:   make([]engine.UpdaterState, len(d.lanes)),
		LastBin: d.lastBin,
		Started: d.started,
	}
	for _, l := range d.lanes {
		l.in <- laneTask{cp: cp, token: token}
	}
	return nil
}

// Close signals end of input. It is idempotent and safe to call
// concurrently with Submit; it does not wait — drain Verdicts (the
// sequence ends after the final verdict) or call Wait.
func (d *StreamDetector) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.closed {
		d.closed = true
		for _, l := range d.lanes {
			close(l.in)
		}
	}
}

// results zips the lanes: every lane answers every task in order, so the
// n-th result of each belongs to the n-th submission. It yields them side
// by side, in lane order — for a checkpoint, once every lane has filled
// its slot (the receive publishes it) — and ends once the detector is
// closed and every submission has been answered.
func (d *StreamDetector) results() iter.Seq[[]laneResult] {
	return func(yield func([]laneResult) bool) {
		for r := range d.lanes[0].out {
			rs := make([]laneResult, len(d.lanes))
			rs[0] = r
			for i, l := range d.lanes[1:] {
				rs[i+1] = <-l.out
			}
			if !yield(rs) {
				return
			}
		}
	}
}

// Verdicts returns the ordered verdict stream, for one consumer to range
// over once, to the end. It ends after Close, once every submitted bin has
// been scored. The characterization chain runs here, on the consumer's
// goroutine, between two verdicts: per-lane alarm attributions become
// detections, the incremental aggregator merges them into events across
// measures and time, and each event is classified and ground-truth-matched
// the moment it closes. A verdict is yielded as soon as it is
// characterized — a live consumer sees bin B's verdict without waiting for
// bin B+1; events still open when the stream ends are flushed and left for
// TailAnomalies to classify, if anyone asks.
func (d *StreamDetector) Verdicts() iter.Seq[StreamVerdict] {
	return func(yield func(StreamVerdict) bool) {
		ds := d.run.ds
		cl, specs := classify.New(ds), ds.Ledger.Specs()
		for rs := range d.results() {
			v := StreamVerdict{Bin: rs[0].bin}
			if cp := rs[0].cp; cp != nil {
				// This loop has characterized and yielded everything before
				// the barrier and touched nothing after it, so the
				// aggregator and the emitted count are consistent with the
				// lane states the barrier collected.
				cp.Agg, cp.Emitted = d.agg.State(), d.emitted
				v = StreamVerdict{Bin: -1, Checkpoint: cp, Token: rs[0].token}
			} else {
				var dets []events.Detection
				for m, r := range rs {
					v.Points[m] = OnlinePoint{
						SPE: r.pt.SPE, T2: r.pt.T2,
						SPEAlarm: r.pt.SPEAlarm, T2Alarm: r.pt.T2Alarm,
						TopOD: ds.ODName(r.pt.TopResidualOD),
					}
					if r.pt.SPEAlarm || r.pt.T2Alarm {
						v.Measures += dataset.Measure(m).String()
					}
					v.Generations[m] = r.gen
					dets = appendDetections(dets, dataset.Measure(m), r.att)
				}
				v.Anomalies = d.finish(cl, specs, d.agg.Add(v.Bin, dets))
				d.emitted += uint64(len(v.Anomalies))
			}
			if !yield(v) {
				return
			}
		}
		d.tailEvents, d.cl = d.agg.Flush(), cl
	}
}

// TailAnomalies returns the characterized anomalies that were still open
// when the stream ended — events the close-on-unextendable rule could not
// finish inside the verdict stream. It is valid once the Verdicts sequence
// has ended (after Close and a full drain, or after Replay returns). The
// events are classified on the first call, not when the stream ends: a
// consumer that is shutting down without a ledger to keep (a killed daemon)
// never calls, and never pays for a classification nobody will read.
func (d *StreamDetector) TailAnomalies() []Anomaly {
	d.tailOnce.Do(func() {
		d.tail = d.finish(d.cl, d.run.ds.Ledger.Specs(), d.tailEvents)
		d.tailEvents, d.cl = nil, nil
	})
	return d.tail
}

// finish classifies a batch of closed events and converts them to public
// Anomalies. Events reaching outside the run's bins (possible only with
// hand-fed Submit bins, never in a replay) skip classification: the
// classifier's seasonal baselines are defined over the run's matrices.
func (d *StreamDetector) finish(cl *classify.Classifier, specs []anomaly.Spec, closed []events.Event) []Anomaly {
	if len(closed) == 0 {
		return nil
	}
	out := make([]Anomaly, 0, len(closed))
	for _, ev := range closed {
		if ev.StartBin < 0 || ev.EndBin >= d.run.ds.Bins {
			out = append(out, d.run.anomalyFromVerdict(classify.Verdict{
				Event: ev,
				Class: classify.ClassUnknown,
				Why:   "event outside the run's bins; no baseline to classify against",
			}, specs))
			continue
		}
		out = append(out, d.run.anomalyFromVerdict(cl.Classify(ev), specs))
	}
	return out
}

// Wait blocks until every lane has answered every submission (the consumer
// must be draining Verdicts) and returns the first lane error — a scoring
// or attribution failure — or else the first model-update failure. A
// failing detector still delivers a complete, ordered verdict stream
// (failed bins carry zero-valued, non-alarming points), so checking Wait is
// how a consumer learns the run was bad.
func (d *StreamDetector) Wait() error {
	d.workers.Wait()
	d.errMu.Lock()
	defer d.errMu.Unlock()
	if d.err != nil {
		return d.err
	}
	return d.refitErr
}

// Err returns the first FATAL error (a lane scoring or attribution failure
// — the verdicts themselves are suspect) recorded so far, without waiting
// for the stream to end: the liveness probe a long-running ingest daemon
// polls between bins. Refit failures are deliberately excluded — scoring
// continues, correctly, on the previous model generation — and surface via
// RefitErr instead.
func (d *StreamDetector) Err() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.err
}

// RefitErr returns the first model-update failure: the detector is
// degraded (its models are aging) but its verdicts remain valid. Wait also
// returns it, after any fatal error.
func (d *StreamDetector) RefitErr() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.refitErr
}

// Freshness returns the per-measure model-freshness gauges: lifecycle
// kind, generation, per-bin updates folded into the current generation,
// bins since the last full (re)fit, and staleness — how many observed bins
// the scoring model has not absorbed (engine.Freshness).
func (d *StreamDetector) Freshness() [dataset.NumMeasures]engine.Freshness {
	var out [dataset.NumMeasures]engine.Freshness
	for i, l := range d.lanes {
		out[i] = l.up.Freshness()
	}
	return out
}

// laneWorker scores its lane's vectors in batches against the lane's
// current model, attributes alarms to OD flows against the same model, and
// feeds every scored bin to the lane's lifecycle (engine.Advance). An
// in-band updater (the incremental tracker) advances the scoring model
// inside Observe, so the worker flushes — scores — each bin before
// observing it: a bin must never be scored by a model that has already
// absorbed it. Otherwise the model only moves when a refit falls due, so
// the worker batches: it flushes when the batch is full or its queue is
// empty — BatchSize-row products under backlog, no waiting for later bins
// when idle — and, when Observe hands back a window, before the fit, so
// every bin it holds is scored by the generation that observed it and the
// next bin by the new one.
//
// Scoring and attribution failures do not panic: a panic on a lane
// goroutine would kill the whole process on the first malformed batch. The
// first error is recorded (surfaced by Err and Wait) and the lane keeps
// draining its queue, answering with zero-valued placeholder results so
// the ordered verdict stream stays complete — consumers see every
// submitted bin, then learn from Wait that the run failed. A model update
// failure only degrades the detector: the previous model keeps scoring.
func (d *StreamDetector) laneWorker(id int, l *lane) {
	defer d.workers.Done()
	defer close(l.out)
	inBand := l.up.InBand()
	batch := make([]laneTask, 0, d.cfg.BatchSize)
	vecs := make([][]float64, 0, d.cfg.BatchSize)
	pts := make([]engine.Point, 0, d.cfg.BatchSize)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if d.batchHook != nil {
			d.batchHook(len(batch))
		}
		m := l.up.Model()
		var err error
		if pts, err = m.ScoreBatch(vecs, pts[:0]); err != nil {
			d.fail(fmt.Errorf("netwide: lane %d score: %w", id, err))
		}
		for i, t := range batch {
			r := laneResult{laneTask: t, gen: m.Gen()}
			if err == nil {
				r.pt = pts[i]
				var aerr error
				if r.att, aerr = identify.AttributeLive(m, t.bin, t.x, pts[i]); aerr != nil {
					d.fail(fmt.Errorf("netwide: lane %d attribute: %w", id, aerr))
				}
			}
			l.out <- r
		}
		batch, vecs = batch[:0], vecs[:0]
	}
	// beforeFit runs when a refit falls due: FaultRefit delays or fails the
	// fit only after the bins the lane held have been answered.
	beforeFit := func() error {
		flush()
		return d.cfg.Faults.Fire(FaultRefit)
	}
	for t := range l.in {
		if t.cp != nil {
			// Score everything before the barrier first, so the captured
			// state (model, window, tracker, refit phase) is exactly the
			// state as of the last pre-barrier bin. Each lane writes its own
			// slot; the send on out publishes it.
			flush()
			t.cp.Lanes[id] = l.up.State()
			l.out <- laneResult{laneTask: t}
			continue
		}
		batch = append(batch, t)
		vecs = append(vecs, t.x)
		if inBand || len(batch) >= d.cfg.BatchSize || len(l.in) == 0 {
			flush()
		}
		if err := engine.Advance(l.up, t.x, beforeFit); err != nil {
			d.failRefit(fmt.Errorf("netwide: lane %d %w", id, err))
		}
	}
	flush()
}

// Replay streams bins [from, to) of the detector's own run through it and
// returns the collected verdicts. It consumes the detector, which is
// closed when the replay ends. The rows are fed as views of the run's
// matrices — nothing is copied. Anomalies still open at the
// end of the range are flushed onto the final verdict, so the replayed
// verdict stream carries every characterized anomaly.
func (d *StreamDetector) Replay(from, to int) ([]StreamVerdict, error) {
	if from < 0 || to > d.run.ds.Bins || from >= to {
		return nil, fmt.Errorf("netwide: replay range [%d,%d) outside run of %d bins", from, to, d.run.ds.Bins)
	}
	mats := [dataset.NumMeasures]*mat.Matrix{}
	for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
		mats[m] = d.run.ds.Matrix(m)
	}
	done := make(chan []StreamVerdict)
	go func() {
		verdicts := make([]StreamVerdict, 0, to-from)
		for v := range d.Verdicts() {
			verdicts = append(verdicts, v)
		}
		done <- verdicts
	}()
	var submitErr error
	for bin := from; bin < to; bin++ {
		if err := d.Submit(bin, mats[0].RowView(bin), mats[1].RowView(bin), mats[2].RowView(bin)); err != nil {
			submitErr = err
			break
		}
	}
	d.Close()
	if err := d.Wait(); err != nil && submitErr == nil {
		submitErr = err
	}
	verdicts := <-done
	if n := len(verdicts); n > 0 {
		verdicts[n-1].Anomalies = append(verdicts[n-1].Anomalies, d.TailAnomalies()...)
	}
	return verdicts, submitErr
}
