package netwide

import (
	"fmt"
	"sync"

	"netwide/internal/anomaly"
	"netwide/internal/classify"
	"netwide/internal/dataset"
	"netwide/internal/engine"
	"netwide/internal/events"
	"netwide/internal/fault"
	"netwide/internal/mat"
	"netwide/internal/stream"
)

// StreamConfig tunes the concurrent streaming detector.
type StreamConfig struct {
	// TrainBins is how many leading bins of the run train the per-measure
	// models (0 = all bins).
	TrainBins int
	// BatchSize is the most vectors scored per model application: the
	// upper bound a backlogged detector fills. An idle one scores each bin
	// as it arrives, so a larger value never delays a verdict.
	BatchSize int
	// Updater selects the model lifecycle: "refit" (or "") for the
	// generation-swap default, "incremental" for per-bin subspace tracking
	// (the scoring model is never more than one bin stale).
	Updater string
	// RefitEvery is the number of streamed bins between background full
	// model refits (0 disables them). Refit windows start pre-seeded from
	// the training bins, and each refit is warm-started from the previous
	// model generation's subspace basis. Under the incremental updater
	// this is the drift-correction fallback cadence.
	RefitEvery int
	// Window is the rolling training window for refits, in bins. Under
	// the incremental updater it doubles as the tracker's forgetting
	// horizon.
	Window int
	// Faults, when non-nil, threads error injection through the pipeline's
	// background paths (see stream.FaultRefit). Nil in production.
	Faults *fault.Injector
}

// SetMathWorkers tunes the process-wide linear-algebra goroutine pool that
// batch scoring, model fits and background refits all draw from (default
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
	// bin (0 = initial fit; each completed background refit increments it).
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

// StreamDetector scores live traffic across all three measures
// concurrently: one detector lane per measure fed over channels, scoring
// batched under load and immediate when idle, a single ordered verdict
// stream, and background rolling refits that swap models in without
// stalling scoring. Beyond raw per-measure alarms it runs the paper's full
// characterization chain at streaming time — OD attribution, cross-measure
// event aggregation, classification, ground-truth matching — and delivers
// the results on StreamVerdict.Anomalies. Run.Detect + Run.Characterize
// run this chain's own code over the whole run at once, so a detector
// trained on every bin replays them bit for bit.
type StreamDetector struct {
	pipe *stream.Pipeline
	out  chan StreamVerdict
	run  *Run
	// agg is the incremental cross-measure event aggregator; owned by the
	// characterize goroutine after construction (the constructor seeds it —
	// empty on a fresh start, rebuilt on a restore).
	agg *events.Aggregator
	// emitted counts anomalies delivered on verdicts so far, cumulative
	// across restores. Owned by the characterize goroutine; a checkpoint
	// carries the value as of its barrier, so a consumer keeping an anomaly
	// ledger can check that the ledger it holds when the barrier verdict
	// arrives is the one the snapshot describes.
	emitted uint64
	// tailEvents holds the events still open when the stream ended, flushed
	// but not yet classified, and cl the classifier that will do it.
	// Written by the characterize goroutine before it closes out, so
	// TailAnomalies may read them once the Verdicts channel has closed.
	tailEvents []events.Event
	cl         *classify.Classifier
	tailOnce   sync.Once
	tail       []Anomaly
	// binMu guards lastBin: the cross-bin event aggregation needs bins in
	// time order, so Submit enforces the contract at the edge instead of
	// letting a violation surface as a panic in a background goroutine.
	binMu   sync.Mutex
	lastBin int
	started bool
}

// LaneCheckpoint is one measure lane's recovery state in serializable
// form: the full model-lifecycle state — the scoring model's parameters,
// the rolling refit window (deep-copied rows, oldest first; nil when full
// refits are disabled), the bins accrued toward the next refit, and the
// incremental tracker's vectors when that lifecycle is running.
type LaneCheckpoint struct {
	Updater engine.UpdaterState
}

// StreamCheckpoint is the StreamDetector's full recovery state, captured
// at a consistent point in the submission order by a Checkpoint barrier:
// every verdict before the point has been characterized and delivered,
// nothing after it has started. All fields are plain data, no live pointers,
// so the snapshot can cross a process boundary; internal/checkpoint's codec
// writes them field by field, and a field added here needs a line there
// (its TestCodecRoundTripsEveryField fails until it has one).
type StreamCheckpoint struct {
	Lanes []LaneCheckpoint
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

// NewStreamDetector trains one model per traffic measure on the run's
// leading cfg.TrainBins bins and assembles the concurrent pipeline around
// them. Training reads the run's matrices through no-copy views; the
// engine retains each view as the seed window for background refits.
func (r *Run) NewStreamDetector(opts DetectOptions, cfg StreamConfig) (*StreamDetector, error) {
	if opts.K == 0 {
		opts = DefaultDetectOptions()
	}
	cfg = cfg.WithDefaults()
	train := cfg.TrainBins
	if train <= 0 || train > r.ds.Bins {
		train = r.ds.Bins
	}
	models := make([]*engine.Model, dataset.NumMeasures)
	for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
		model, err := engine.Fit(r.ds.Matrix(m).HeadRows(train), engine.Options{K: opts.K, Alpha: opts.Alpha})
		if err != nil {
			return nil, fmt.Errorf("netwide: stream train %v: %w", m, err)
		}
		models[int(m)] = model
	}
	pipe, err := stream.New(models, stream.Config{
		BatchSize:  cfg.BatchSize,
		Updater:    engine.UpdaterKind(cfg.Updater),
		RefitEvery: cfg.RefitEvery,
		Window:     cfg.Window,
		Faults:     cfg.Faults,
	})
	if err != nil {
		return nil, fmt.Errorf("netwide: stream pipeline: %w", err)
	}
	d := &StreamDetector{
		pipe: pipe,
		out:  make(chan StreamVerdict, 64),
		run:  r,
		agg:  events.NewAggregator(),
	}
	go d.characterize()
	return d, nil
}

// RestoreStreamDetector rebuilds a streaming detector from a checkpoint:
// each lane's model is reassembled from its serialized parameters (no
// refit — a restored model scores bit-identically to the one that was
// snapshotted), the refit windows and phases resume where they were, and
// the event aggregator reopens the anomalies that were still extendable.
// Fed the bins after the checkpoint's barrier, the restored detector
// characterizes them exactly as the uninterrupted detector would have.
// The model options (K, Alpha) ride inside the checkpoint; cfg supplies
// the pipeline tuning, which must match the original run's for refit
// windows to restore (Window may not shrink below a captured window).
func (r *Run) RestoreStreamDetector(cp StreamCheckpoint, cfg StreamConfig) (*StreamDetector, error) {
	cfg = cfg.WithDefaults()
	if len(cp.Lanes) != int(dataset.NumMeasures) {
		return nil, fmt.Errorf("netwide: checkpoint has %d lanes, want %d", len(cp.Lanes), dataset.NumMeasures)
	}
	states := make([]stream.LaneState, len(cp.Lanes))
	for i, lc := range cp.Lanes {
		if p := len(lc.Updater.Model.Mean); p != r.ds.NumODPairs() {
			return nil, fmt.Errorf("netwide: restored %v model scores %d OD pairs, run has %d", dataset.Measure(i), p, r.ds.NumODPairs())
		}
		states[i] = stream.LaneState{Updater: lc.Updater}
	}
	agg, err := events.RestoreAggregator(cp.Agg)
	if err != nil {
		return nil, fmt.Errorf("netwide: restore aggregator: %w", err)
	}
	pipe, err := stream.NewRestored(states, stream.Config{
		BatchSize:  cfg.BatchSize,
		Updater:    engine.UpdaterKind(cfg.Updater),
		RefitEvery: cfg.RefitEvery,
		Window:     cfg.Window,
		Faults:     cfg.Faults,
	})
	if err != nil {
		return nil, fmt.Errorf("netwide: restore pipeline: %w", err)
	}
	d := &StreamDetector{
		pipe:    pipe,
		out:     make(chan StreamVerdict, 64),
		run:     r,
		agg:     agg,
		emitted: cp.Emitted,
		lastBin: cp.LastBin,
		started: cp.Started,
	}
	go d.characterize()
	return d, nil
}

// barrierToken is what a Checkpoint barrier carries through the pipeline:
// Submit's cursor as of the injection, and the caller's own token.
type barrierToken struct {
	lastBin int
	started bool
	user    any
}

// Checkpoint asks for the detector's full recovery state at this point in
// the submission order: it injects a barrier behind every bin submitted so
// far and returns without waiting for it (it blocks only as Submit does,
// when the pipeline is full). The barrier rides the verdict stream past the
// lanes and the characterization chain, and comes out of Verdicts as a
// StreamVerdict whose Checkpoint field holds the state and whose Token is
// the one given here — after every verdict submitted before the call and
// before any submitted after it. Serializes with concurrent Submits; fails
// after Close.
func (d *StreamDetector) Checkpoint(token any) error {
	d.binMu.Lock()
	defer d.binMu.Unlock()
	if err := d.pipe.Barrier(barrierToken{d.lastBin, d.started, token}); err != nil {
		return fmt.Errorf("netwide: checkpoint: %w", err)
	}
	return nil
}

// characterize relabels the internal verdict stream with the public types
// and runs the streaming characterization chain over it: per-lane alarm
// attributions become detections, the incremental aggregator merges them
// into events across measures and time, and each event is classified and
// ground-truth-matched the moment it closes. Verdicts are forwarded as
// soon as they are characterized — live consumers see bin B's verdict
// without waiting for bin B+1; events still open when the stream ends are
// flushed and left for TailAnomalies to classify, if anyone asks.
func (d *StreamDetector) characterize() {
	agg := d.agg
	cl := classify.New(d.run.ds)
	specs := d.run.ds.Ledger.Specs()
	for v := range d.pipe.Verdicts() {
		if v.Barrier != nil {
			// A checkpoint barrier: everything before it has been delivered
			// (this goroutine delivered it), nothing after it has been
			// touched, so the aggregator + emitted count snapshot here is
			// consistent with the lane states the barrier carries. It goes
			// on down the same channel, keeping its place in the order.
			d.out <- d.barrierVerdict(v.Barrier)
			continue
		}
		sv := StreamVerdict{Bin: v.Bin}
		var dets []events.Detection
		for m := 0; m < int(dataset.NumMeasures); m++ {
			pt := v.Points[m]
			sv.Points[m] = OnlinePoint{
				SPE: pt.SPE, T2: pt.T2,
				SPEAlarm: pt.SPEAlarm, T2Alarm: pt.T2Alarm,
				TopOD: d.run.ds.ODName(pt.TopResidualOD),
			}
			if pt.SPEAlarm || pt.T2Alarm {
				sv.Measures += dataset.Measure(m).String()
			}
			sv.Generations[m] = v.Gens[m]
			dets = appendDetections(dets, dataset.Measure(m), v.Attribs[m])
		}
		sv.Anomalies = d.finish(cl, specs, agg.Add(v.Bin, dets))
		d.emitted += uint64(len(sv.Anomalies))
		d.out <- sv
	}
	d.tailEvents, d.cl = agg.Flush(), cl
	close(d.out)
}

// barrierVerdict turns a pipeline barrier into the verdict that answers its
// Checkpoint call: the lane states the barrier collected, the
// characterize-side state as of this point in the stream, Submit's cursor
// as of the injection. Runs on the characterize goroutine.
func (d *StreamDetector) barrierVerdict(bar *stream.Barrier) StreamVerdict {
	tok := bar.Token.(barrierToken)
	cp := &StreamCheckpoint{
		Lanes:   make([]LaneCheckpoint, len(bar.Lanes)),
		Agg:     d.agg.State(),
		LastBin: tok.lastBin,
		Started: tok.started,
		Emitted: d.emitted,
	}
	for i, ls := range bar.Lanes {
		// The lane captured deep copies at the barrier (engine.Updater.State),
		// so the checkpoint can outlive the pipeline.
		cp.Lanes[i] = LaneCheckpoint{Updater: ls.Updater}
	}
	return StreamVerdict{Bin: -1, Checkpoint: cp, Token: tok.user}
}

// TailAnomalies returns the characterized anomalies that were still open
// when the stream ended — events the close-on-unextendable rule could not
// finish inside the verdict stream. It is valid once the Verdicts channel
// has closed (after Close and a full drain, or after Replay returns). The
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

// Submit feeds one 5-minute bin: the byte, packet and IP-flow vectors, each
// of NumODPairs per-OD values. Bins must be submitted in time order
// (non-decreasing) — the cross-bin event aggregation depends on it, so a
// bin earlier than its predecessor is rejected here. Verdicts come back in
// submission order on Verdicts.
func (d *StreamDetector) Submit(bin int, bytes, packets, flows []float64) error {
	// binMu stays held across the pipeline send: releasing it earlier
	// would let two concurrent Submits pass the order check and still
	// enqueue their bins in either order.
	d.binMu.Lock()
	defer d.binMu.Unlock()
	if d.started && bin < d.lastBin {
		return fmt.Errorf("netwide: stream bin %d submitted after bin %d (bins must be non-decreasing)", bin, d.lastBin)
	}
	if err := d.pipe.Submit(stream.Sample{Bin: bin, Vecs: [][]float64{bytes, packets, flows}}); err != nil {
		return err
	}
	d.started, d.lastBin = true, bin
	return nil
}

// Verdicts returns the ordered verdict stream; the channel closes after
// Close once every submitted bin has been scored.
func (d *StreamDetector) Verdicts() <-chan StreamVerdict { return d.out }

// Close signals end of input.
func (d *StreamDetector) Close() { d.pipe.Close() }

// Wait blocks until every verdict has been emitted (the consumer must drain
// Verdicts) and returns the first background error — a lane scoring or
// attribution failure, or a refit failure. A failing pipeline still
// delivers a complete, ordered verdict stream (failed bins carry
// zero-valued, non-alarming points), so checking Wait is how a consumer
// learns the run was bad.
func (d *StreamDetector) Wait() error { return d.pipe.Wait() }

// Err returns the first FATAL background pipeline error (a lane scoring
// or attribution failure — the verdicts themselves are suspect) recorded
// so far, without waiting for the stream to end: the liveness probe a
// long-running ingest daemon polls between bins. Background refit
// failures are deliberately excluded — scoring continues, correctly, on
// the previous model generation — and surface via RefitErr instead.
func (d *StreamDetector) Err() error { return d.pipe.Err() }

// RefitErr returns the first background refit failure: the detector is
// degraded (its models are aging) but its verdicts remain valid. Wait
// also returns it, after any fatal error.
func (d *StreamDetector) RefitErr() error { return d.pipe.RefitErr() }

// Generations returns the per-measure model generation: how many full
// refits have completed and been adopted. Per-bin incremental updates
// advance the model without bumping the generation — see Freshness.
func (d *StreamDetector) Generations() [dataset.NumMeasures]uint64 {
	var out [dataset.NumMeasures]uint64
	copy(out[:], d.pipe.Generations())
	return out
}

// Freshness returns the per-measure model-freshness gauges: lifecycle
// kind, generation, per-bin updates folded into the current generation,
// bins since the last full (re)fit, and staleness — how many observed bins
// the scoring model has not absorbed (up to RefitEvery under the refit
// lifecycle, at most 1 under the incremental one).
func (d *StreamDetector) Freshness() [dataset.NumMeasures]engine.Freshness {
	var out [dataset.NumMeasures]engine.Freshness
	copy(out[:], d.pipe.Freshness())
	return out
}

// Replay streams bins [from, to) of the detector's own run through the
// pipeline and returns the collected verdicts. It consumes the detector:
// the pipeline is closed when the replay ends. The rows are fed as views
// of the run's matrices — nothing is copied. Anomalies still open at the
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
