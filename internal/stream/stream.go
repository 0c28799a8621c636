// Package stream is the concurrent streaming detection pipeline: the
// "practical, online diagnosis of network-wide anomalies" the paper's
// conclusion calls for, built to keep up with live collection.
//
// One Pipeline owns one detector lane per traffic measure (bytes, packets,
// IP-flows in the paper's setup, but any set of fitted engine.Model lanes
// works). Each submitted Sample — one 5-minute timebin carrying one
// traffic vector per lane — goes straight onto every lane's input channel,
// and each lane worker scores whatever has queued up, at most
// Config.BatchSize vectors at a time (engine.Model.ScoreBatch, two dense
// matrix products per batch; a lane whose queue is empty scores the bin it
// holds rather than wait for more) and attributes every alarm to its
// responsible OD flows against the model generation that scored it
// (identify.AttributeLive). A lane emits its results in submission order
// on its own output channel, so the verdict stream needs no merge stage:
// Verdicts zips the lanes — one result from each per submission — into
// per-bin Verdicts, in submission order however lane scheduling
// interleaves.
//
// Each lane keeps its model current through a pluggable engine.Updater —
// the model lifecycle. Under the default refit lifecycle the updater
// maintains a rolling window of accepted vectors (seeded from the engine's
// retained training window, so the first refit does not have to wait for a
// full window of live traffic) and every RefitEvery bins hands it back to
// the lane worker, which scores the bins it holds, fits the window and
// installs the new generation before it takes the next bin
// (engine.Advance). Under the incremental lifecycle the lane worker folds
// every closed bin into the model in-band — a rank-1 subspace update per
// bin, so the scoring model is never more than one bin stale — and
// RefitEvery becomes the cadence of drift-correction refits, run the same
// way. Refits are warm-started from the previous generation's basis
// (engine.Model.Refit), so on wide OD matrices the subspace iteration
// converges in a few sweeps; while one runs, its lane's bins queue behind
// it. The bin after a refit-due bin is the new generation's first, whatever
// the batch size or the scheduler does, so the verdicts are a function of
// the input alone; each Verdict records the model generation that scored
// it.
package stream

import (
	"errors"
	"fmt"
	"iter"
	"sync"

	"netwide/internal/engine"
	"netwide/internal/fault"
	"netwide/internal/identify"
)

// Config tunes a Pipeline. The zero value gets sensible defaults.
type Config struct {
	// BatchSize is the most vectors a lane worker scores per model
	// application (default 16). Batching is load-adaptive: a lane scores
	// what it holds as soon as its queue is empty, so an idle pipeline
	// answers every bin at once and only a backlogged one fills whole
	// batches, which amortize the projection products exactly when
	// throughput is what matters. Verdicts do not depend on where the batch
	// boundaries fall. Lanes running an in-band updater score bin-by-bin
	// regardless — a bin must be scored before the model absorbs it.
	// BatchSize also sets how far Submit may run ahead of a stalled verdict
	// consumer: each lane's input and output channel hold depthPerBatch
	// batches.
	BatchSize int
	// Updater selects the model lifecycle (engine.UpdaterRefit,
	// engine.UpdaterIncremental); "" means the default refit lifecycle.
	Updater engine.UpdaterKind
	// RefitEvery is the number of accepted bins between full refits of a
	// lane's model (0 disables them). Under the incremental updater this is
	// the drift-correction fallback cadence.
	RefitEvery int
	// Window is the rolling training window length in bins. Required when
	// RefitEvery > 0; must exceed the vector length p for the PCA fit to
	// be well-posed (the fit itself demands n > p). Under the incremental
	// updater it doubles as the tracker's forgetting horizon.
	Window int
	// Faults, when non-nil, threads error injection through the lanes'
	// refits (FaultRefit). Nil in production.
	Faults *fault.Injector
}

// depthPerBatch is each lane channel's depth in batches: an input and an
// output channel of 10·BatchSize let Submit run 20·BatchSize+1 bins ahead
// of a consumer that reads nothing (TestSubmitDepth pins the floor).
const depthPerBatch = 10

// batchHook, when non-nil, sees the size of every batch a lane is about to
// score. Tests set it before building a pipeline; nil in production.
var batchHook func(n int)

// FaultRefit is the injection point a lane consults before every refit fit,
// once it has scored the bins it holds: arm a Delay for a slow refit (the
// lane's later bins wait it out), an Err for a failing one.
const FaultRefit = "stream.refit"

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	return c
}

// updaterConfig is the engine-level lifecycle tuning this pipeline config
// implies.
func (c Config) updaterConfig() engine.UpdaterConfig {
	return engine.UpdaterConfig{RefitEvery: c.RefitEvery, Window: c.Window}
}

// Sample is one timebin of traffic: one vector per lane, in lane order.
type Sample struct {
	Bin  int
	Vecs [][]float64
}

// Barrier is a consistent pipeline snapshot: every lane's state captured
// at the same point in the submission order. It arrives as a Verdict with
// a non-nil Barrier field, ordered among the data verdicts exactly where
// Pipeline.Barrier was called among the Submits — everything before it has
// been scored and emitted, nothing after it has. NewRestored resumes a
// pipeline from one.
type Barrier struct {
	// Lanes[i] is lane i's full lifecycle state (scoring model, rolling
	// window, refit phase, tracker vectors) as of every bin before the
	// barrier, deep-copied and serializable.
	Lanes []engine.UpdaterState
	// LastBin and Started are Submit's bin-order cursor as of the barrier:
	// the last bin submitted before it, and whether there was one.
	LastBin int
	Started bool
	// Token is whatever the caller handed to Pipeline.Barrier, returned
	// untouched: the caller does not wait for its barrier, so this is how
	// the verdict consumer tells which request a barrier answers.
	Token any
}

// Verdict is the merged scoring of one bin across every lane. Verdicts are
// delivered in submission order.
type Verdict struct {
	// Bin is the submitted timebin, or -1 for a barrier verdict.
	Bin int
	// Points holds each lane's statistics for the bin, indexed by lane.
	Points []engine.Point
	// Gens[i] is the model generation of lane i that scored this bin
	// (0 = the initial fit, incremented per adopted full refit; per-bin
	// incremental updates advance the model without bumping it).
	Gens []uint64
	// Attribs[i] lists lane i's attributed alarms for the bin (one entry
	// per alarmed statistic; nil when the lane is clean).
	Attribs [][]identify.Attribution
	// Barrier is non-nil on a checkpoint barrier verdict, which carries no
	// scoring (Points/Gens/Attribs are nil, Bin is -1).
	Barrier *Barrier
}

// Alarm reports whether any lane flagged the bin on either statistic.
func (v Verdict) Alarm() bool {
	for _, pt := range v.Points {
		if pt.SPEAlarm || pt.T2Alarm {
			return true
		}
	}
	return false
}

// AlarmLanes returns the lane indices that flagged the bin.
func (v Verdict) AlarmLanes() []int {
	var out []int
	for i, pt := range v.Points {
		if pt.SPEAlarm || pt.T2Alarm {
			out = append(out, i)
		}
	}
	return out
}

// laneTask is one vector, or one barrier, en route to a lane worker.
type laneTask struct {
	bin     int
	x       []float64
	barrier *Barrier
}

// laneResult is one lane's answer to one laneTask. A barrier result carries
// the barrier — the lane's state already captured into its slot — instead
// of a scoring.
type laneResult struct {
	bin     int
	pt      engine.Point
	gen     uint64
	att     []identify.Attribution
	barrier *Barrier
}

// lane is one detector worker: a model lifecycle (the updater owns the
// scoring model, the rolling window and any tracker state) and its input
// and output channels.
type lane struct {
	id  int
	up  engine.Updater
	in  chan laneTask
	out chan laneResult // one result per task, in task order
	p   int             // vector length the lane's model scores
}

// Pipeline is the running detection pipeline. Construct with New, feed with
// Submit, then Close and drain Verdicts; Wait blocks until the verdict
// stream is complete and reports any lane or model-update error.
type Pipeline struct {
	cfg   Config
	lanes []*lane

	workerWG sync.WaitGroup

	// mu serializes Submit, Barrier and Close, so every lane receives the
	// submissions in one order, a closed input channel is never sent on, and
	// the bin-order cursor (lastBin, started) is checked and advanced
	// atomically with the send.
	mu      sync.Mutex
	closed  bool
	lastBin int
	started bool

	errMu sync.Mutex
	err   error // first fatal failure (scoring or attribution)
	// refitErr is the first model-update failure — a failed full refit or
	// a failed incremental fold. It is tracked apart from err because the
	// two mean different things operationally: an update failure leaves the
	// pipeline DEGRADED (scoring continues, correctly, on the previous
	// model), while a scoring failure means the verdicts themselves are
	// bad.
	refitErr error
}

// fail records the first fatal background error. Later errors are
// dropped: the first failure is the root cause, everything after it is
// fallout.
func (p *Pipeline) fail(err error) {
	p.errMu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.errMu.Unlock()
}

// failRefit records the first model-update failure — the degraded (not
// fatal) condition.
func (p *Pipeline) failRefit(err error) {
	p.errMu.Lock()
	if p.refitErr == nil {
		p.refitErr = err
	}
	p.errMu.Unlock()
}

// Err returns the first fatal background error (scoring or attribution)
// recorded so far, without waiting for the pipeline to finish. Model
// update failures do not surface here — scoring continues on the previous
// model — see RefitErr.
func (p *Pipeline) Err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.err
}

// RefitErr returns the first model-update failure, the signal that the
// pipeline is running degraded on an aging model.
func (p *Pipeline) RefitErr() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.refitErr
}

// New builds a pipeline with one lane per fitted engine model, each
// wrapped in the lifecycle cfg.Updater selects. The models are immutable
// generations, so sharing them with the caller is safe; when
// cfg.RefitEvery > 0 each lane's rolling window is pre-seeded from its
// model's retained training window (the engine keeps a reference, not a
// copy), so the first refit is due after RefitEvery bins rather than
// after a full window of live traffic.
func New(models []*engine.Model, cfg Config) (*Pipeline, error) {
	if len(models) == 0 {
		return nil, errors.New("stream: no models")
	}
	ups := make([]engine.Updater, len(models))
	for i, m := range models {
		if m == nil {
			return nil, fmt.Errorf("stream: lane %d has no model", i)
		}
		up, err := engine.NewUpdater(cfg.Updater, m, cfg.updaterConfig())
		if err != nil {
			return nil, fmt.Errorf("stream: lane %d: %w", i, err)
		}
		ups[i] = up
	}
	p := newPipeline(ups, cfg)
	for i, m := range models {
		if err := m.FitWarning(); err != nil {
			p.failRefit(fmt.Errorf("stream: lane %d fit: %w", i, err))
		}
	}
	return p, nil
}

// NewRestored builds a pipeline from a Barrier — the restart half of
// checkpointing: the barrier was captured in a previous process, and the
// new pipeline resumes with the same model generations, windows, tracker
// vectors, refit phase and bin-order cursor the old one had. Each lane
// state's lifecycle kind must match cfg.Updater — a checkpoint from one
// lifecycle cannot silently resume under another.
func NewRestored(from *Barrier, cfg Config) (*Pipeline, error) {
	if from == nil || len(from.Lanes) == 0 {
		return nil, errors.New("stream: no lane states")
	}
	want, err := engine.ParseUpdaterKind(string(cfg.Updater))
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	ups := make([]engine.Updater, len(from.Lanes))
	for i, st := range from.Lanes {
		if st.Kind != want {
			return nil, fmt.Errorf("stream: lane %d state was captured under the %q updater but the pipeline is configured for %q", i, st.Kind, want)
		}
		up, err := engine.RestoreUpdater(st, cfg.updaterConfig())
		if err != nil {
			return nil, fmt.Errorf("stream: lane %d: %w", i, err)
		}
		ups[i] = up
	}
	p := newPipeline(ups, cfg)
	p.lastBin, p.started = from.LastBin, from.Started
	return p, nil
}

// newPipeline starts one worker per ready lifecycle — the shared tail of
// New and NewRestored.
func newPipeline(ups []engine.Updater, cfg Config) *Pipeline {
	cfg = cfg.withDefaults()
	depth := depthPerBatch * cfg.BatchSize
	p := &Pipeline{cfg: cfg}
	for i, up := range ups {
		l := &lane{
			id:  i,
			up:  up,
			in:  make(chan laneTask, depth),
			out: make(chan laneResult, depth),
			p:   up.Model().P(),
		}
		p.lanes = append(p.lanes, l)
		p.workerWG.Add(1)
		go p.laneWorker(l)
	}
	return p
}

// Lanes returns the number of detector lanes.
func (p *Pipeline) Lanes() int { return len(p.lanes) }

// Freshness returns each lane's model-freshness gauges.
func (p *Pipeline) Freshness() []engine.Freshness {
	out := make([]engine.Freshness, len(p.lanes))
	for i, l := range p.lanes {
		out[i] = l.up.Freshness()
	}
	return out
}

// Submit feeds one timebin into the pipeline. Bins must be submitted in
// time order (non-decreasing) — the cross-bin event aggregation downstream
// depends on it, so a bin earlier than its predecessor is rejected here.
// Vectors are validated here too, so the lanes never see a malformed
// sample; the pipeline retains the slices, so callers streaming from a
// reused buffer must copy first. Submit blocks when a lane's input channel
// is full: 20·BatchSize+1 bins ahead of a verdict consumer that has
// stopped reading.
func (p *Pipeline) Submit(s Sample) error {
	if len(s.Vecs) != len(p.lanes) {
		return fmt.Errorf("stream: sample has %d vectors, want %d", len(s.Vecs), len(p.lanes))
	}
	for i, x := range s.Vecs {
		if len(x) != p.lanes[i].p {
			return fmt.Errorf("stream: lane %d vector length %d, want %d", i, len(x), p.lanes[i].p)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errors.New("stream: submit after Close")
	}
	if p.started && s.Bin < p.lastBin {
		return fmt.Errorf("stream: bin %d submitted after bin %d (bins must be non-decreasing)", s.Bin, p.lastBin)
	}
	for i, l := range p.lanes {
		l.in <- laneTask{bin: s.Bin, x: s.Vecs[i]}
	}
	p.started, p.lastBin = true, s.Bin
	return nil
}

// Barrier injects a checkpoint barrier into the submission order: a
// control message sent to every lane behind all earlier Submits, which
// captures each lane's state after the lane has scored everything before
// it, and surfaces in the verdict stream as a Verdict with a non-nil
// Barrier field, ordered exactly where this call fell among the Submits.
// It does not wait for that verdict: token rides along on Barrier.Token for
// the consumer to recognise it by. Like Submit it blocks when a lane's
// input channel is full, and fails after Close.
func (p *Pipeline) Barrier(token any) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errors.New("stream: barrier after Close")
	}
	b := &Barrier{
		Lanes:   make([]engine.UpdaterState, len(p.lanes)),
		LastBin: p.lastBin,
		Started: p.started,
		Token:   token,
	}
	for _, l := range p.lanes {
		l.in <- laneTask{barrier: b}
	}
	return nil
}

// Close signals end of input. It is idempotent and safe to call
// concurrently with Submit; it does not wait — drain Verdicts (the
// sequence ends after the final verdict) or call Wait.
func (p *Pipeline) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		for _, l := range p.lanes {
			close(l.in)
		}
	}
}

// Verdicts returns the ordered verdict stream, for one consumer to range
// over once. Every lane answers every submission in order, so the n-th
// result of each lane belongs to the n-th submission: the sequence takes
// one result from every lane and yields their merge, a barrier when the
// submission was one (each lane has then filled its slot, and the receive
// publishes it). It ends once every submitted bin has been scored and the
// pipeline is closed.
func (p *Pipeline) Verdicts() iter.Seq[Verdict] {
	return func(yield func(Verdict) bool) {
		for r := range p.lanes[0].out {
			v := Verdict{Bin: -1, Barrier: r.barrier}
			if r.barrier == nil {
				v = Verdict{
					Bin:     r.bin,
					Points:  make([]engine.Point, len(p.lanes)),
					Gens:    make([]uint64, len(p.lanes)),
					Attribs: make([][]identify.Attribution, len(p.lanes)),
				}
			}
			for i, l := range p.lanes {
				if i > 0 {
					r = <-l.out
				}
				if v.Barrier == nil {
					v.Points[i], v.Gens[i], v.Attribs[i] = r.pt, r.gen, r.att
				}
			}
			if !yield(v) {
				return
			}
		}
	}
}

// Wait blocks until the pipeline has emitted every verdict (the consumer
// must be draining Verdicts), then returns the first lane error — a
// scoring or attribution failure — or else the first model-update
// failure. A failed run still delivers a complete, ordered verdict stream
// (failed bins carry zero-valued placeholder points), so Wait is the only
// place a lane failure surfaces.
func (p *Pipeline) Wait() error {
	p.workerWG.Wait()
	p.errMu.Lock()
	defer p.errMu.Unlock()
	if p.err != nil {
		return p.err
	}
	return p.refitErr
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
// first error is recorded on the pipeline (surfaced by Err and Wait) and
// the lane keeps draining its queue, emitting zero-valued placeholder
// results so the ordered verdict stream stays complete — consumers see
// every submitted bin, then learn from Wait that the run failed. A model
// update failure only degrades the pipeline: the previous model keeps
// scoring.
func (p *Pipeline) laneWorker(l *lane) {
	defer p.workerWG.Done()
	defer close(l.out)
	inBand := l.up.InBand()
	batch := make([]laneTask, 0, p.cfg.BatchSize)
	vecs := make([][]float64, 0, p.cfg.BatchSize)
	pts := make([]engine.Point, 0, p.cfg.BatchSize)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if batchHook != nil {
			batchHook(len(batch))
		}
		m := l.up.Model()
		var err error
		pts, err = m.ScoreBatch(vecs, pts[:0])
		if err != nil {
			p.fail(fmt.Errorf("stream: lane %d score: %w", l.id, err))
			for _, t := range batch {
				l.out <- laneResult{bin: t.bin, gen: m.Gen()}
			}
			batch, vecs = batch[:0], vecs[:0]
			return
		}
		for i, t := range batch {
			att, err := identify.AttributeLive(m, t.bin, t.x, pts[i])
			if err != nil {
				p.fail(fmt.Errorf("stream: lane %d attribute: %w", l.id, err))
				att = nil
			}
			l.out <- laneResult{bin: t.bin, pt: pts[i], gen: m.Gen(), att: att}
		}
		batch, vecs = batch[:0], vecs[:0]
	}
	// beforeFit runs when a refit falls due: FaultRefit delays or fails the
	// fit only after the bins it held have been answered.
	beforeFit := func() error {
		flush()
		return p.cfg.Faults.Fire(FaultRefit)
	}
	for t := range l.in {
		if t.barrier != nil {
			// Score everything before the barrier first, so the captured
			// state (model, window, tracker, refit phase) is exactly the
			// state as of the last pre-barrier bin. Each lane writes its own
			// slot; the send on out publishes it.
			flush()
			t.barrier.Lanes[l.id] = l.up.State()
			l.out <- laneResult{bin: -1, barrier: t.barrier}
			continue
		}
		batch = append(batch, t)
		vecs = append(vecs, t.x)
		if inBand || len(batch) >= p.cfg.BatchSize || len(l.in) == 0 {
			flush()
		}
		if err := engine.Advance(l.up, t.x, beforeFit); err != nil {
			p.failRefit(fmt.Errorf("stream: lane %d %w", l.id, err))
		}
	}
	flush()
}
