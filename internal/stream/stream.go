// Package stream is the concurrent streaming detection pipeline: the
// "practical, online diagnosis of network-wide anomalies" the paper's
// conclusion calls for, built to keep up with live collection.
//
// One Pipeline owns one detector lane per traffic measure (bytes, packets,
// IP-flows in the paper's setup, but any set of fitted engine.Model lanes
// works). Each submitted Sample — one 5-minute timebin carrying one
// traffic vector per lane — is fanned out over channels to the lane
// workers, which score whatever has queued up, at most Config.BatchSize
// vectors at a time (engine.Model.ScoreBatch, two dense matrix products
// per batch; a lane whose queue is empty scores the bin it holds rather
// than wait for more) and
// attribute every alarm to its responsible OD flows against the model
// generation that scored it (identify.AttributeLive). A single aggregator
// merges the per-lane verdicts back into one stream of per-bin Verdicts,
// emitted strictly in submission order regardless of how lane scheduling
// interleaves.
//
// Each lane keeps its model current through a pluggable engine.Updater —
// the model lifecycle. Under the default refit lifecycle the updater
// maintains a rolling window of accepted vectors (seeded from the engine's
// retained training window, so the first refit does not have to wait for a
// full window of live traffic) and periodically hands out a snapshot; the
// fit runs on a separate refitter goroutine while the worker keeps scoring
// with the current model, and the finished generation is swapped in with a
// single atomic pointer store. Under the incremental lifecycle the lane
// worker folds every closed bin into the model in-band — a rank-1 subspace
// update per bin, so the scoring model is never more than one bin stale —
// and the refitter goroutine only serves the periodic drift-correction
// refits (RefitEvery becomes the fallback cadence). Refits are warm-started
// from the previous generation's basis (engine.Model.Refit), so on wide OD
// matrices the subspace iteration converges in a few sweeps. Scoring never
// stalls, and no verdict is dropped or reordered across a swap; each
// Verdict records the model generation that scored it.
package stream

import (
	"errors"
	"fmt"
	"sync"

	"netwide/internal/engine"
	"netwide/internal/fault"
	"netwide/internal/identify"
	"netwide/internal/mat"
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
	BatchSize int
	// Buffer is the per-channel depth between pipeline stages (default
	// 4*BatchSize): how far the dispatcher may run ahead of a slow lane.
	Buffer int
	// Updater selects the model lifecycle (engine.UpdaterRefit,
	// engine.UpdaterIncremental); "" means the default refit lifecycle.
	Updater engine.UpdaterKind
	// RefitEvery is the number of accepted bins between background full
	// refits of a lane's model (0 disables them). Under the incremental
	// updater this is the drift-correction fallback cadence.
	RefitEvery int
	// Window is the rolling training window length in bins. Required when
	// RefitEvery > 0; must exceed the vector length p for the PCA fit to
	// be well-posed (the fit itself demands n > p). Under the incremental
	// updater it doubles as the tracker's forgetting horizon.
	Window int
	// Faults, when non-nil, threads error injection through the pipeline's
	// background paths (currently FaultRefit). Nil in production.
	Faults *fault.Injector
}

// batchHook, when non-nil, sees the size of every batch a lane is about to
// score. Tests set it before building a pipeline; nil in production.
var batchHook func(n int)

// FaultRefit is the injection point consulted before every background
// refit: arm a Delay for a slow refit, an Err for a failing one.
const FaultRefit = "stream.refit"

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.Buffer <= 0 {
		c.Buffer = 4 * c.BatchSize
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
	// barrier marks a checkpoint barrier control message (injected by
	// Barrier, never constructible by callers): it flows through the same
	// channels as data, so its position in the verdict stream is exactly
	// its position in the submission order. The lanes fill it in as it
	// passes them.
	barrier *Barrier
}

// LaneState is one lane's recovery state, captured at a Barrier: the full
// lifecycle state (scoring model, rolling window, refit phase, tracker
// vectors) as of every bin before the barrier, deep-copied and
// serializable.
type LaneState struct {
	Updater engine.UpdaterState
}

// Barrier is a consistent pipeline snapshot: every lane's state captured
// at the same point in the submission order. It arrives as a Verdict with
// a non-nil Barrier field, ordered among the data verdicts exactly where
// Pipeline.Barrier was called among the Submits — everything before it has
// been scored and emitted, nothing after it has.
type Barrier struct {
	Lanes []LaneState
	// Token is whatever the caller handed to Pipeline.Barrier, returned
	// untouched: the injector does not wait for its barrier, so this is how
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

// laneTask is one vector en route to a lane worker. seq is the global
// submission index the aggregator reorders on.
type laneTask struct {
	seq     int
	bin     int
	x       []float64
	barrier *Barrier
}

// laneResult is one scored vector en route to the aggregator. A barrier
// result carries the barrier — the lane's state already captured into its
// slot — instead of a scoring.
type laneResult struct {
	lane    int
	seq     int
	bin     int
	pt      engine.Point
	gen     uint64
	att     []identify.Attribution
	barrier *Barrier
}

// lane is one detector worker: a model lifecycle (the updater owns the
// scoring model, the rolling window and any tracker state), a task
// channel, and the hand-off channel to the lane's refitter goroutine.
type lane struct {
	id int
	up engine.Updater
	in chan laneTask
	p  int // vector length the lane's model scores

	refitIn chan *mat.Matrix // capacity 1; nil when full refits are disabled
}

// Pipeline is the running detection pipeline. Construct with New, feed with
// Submit, then Close and drain Verdicts; Wait blocks until the verdict
// stream is complete and reports any background refit error.
type Pipeline struct {
	cfg   Config
	lanes []*lane
	in    chan Sample
	out   chan Verdict
	agg   chan laneResult

	workerWG sync.WaitGroup // dispatcher + lane workers
	refitWG  sync.WaitGroup
	done     chan struct{} // closed when the aggregator finishes

	seq int

	// closeMu serializes Submit against Close so a concurrent shutdown can
	// neither double-close the input channel nor race a send on it.
	closeMu sync.Mutex
	closed  bool

	errMu sync.Mutex
	err   error // first fatal failure (scoring or attribution)
	// refitErr is the first background model-update failure — a failed
	// full refit or a failed incremental fold. It is tracked apart from
	// err because the two mean different things operationally: an update
	// failure leaves the pipeline DEGRADED (scoring continues, correctly,
	// on the previous model), while a scoring failure means the verdicts
	// themselves are bad.
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

// failRefit records the first background model-update failure — the
// degraded (not fatal) condition.
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

// RefitErr returns the first background model-update failure, the signal
// that the pipeline is running degraded on an aging model.
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
// copy), so the first background refit is due after RefitEvery bins rather
// than after a full window of live traffic.
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
	p, err := newPipeline(ups, cfg)
	if err != nil {
		return nil, err
	}
	for i, m := range models {
		if err := m.FitWarning(); err != nil {
			p.failRefit(fmt.Errorf("stream: lane %d fit: %w", i, err))
		}
	}
	return p, nil
}

// NewRestored builds a pipeline from per-lane recovery states — the
// restart half of checkpointing: the states come from a Barrier captured
// in a previous process, and the new pipeline resumes with the same model
// generations, windows, tracker vectors and refit phase the old one had.
// Each state's lifecycle kind must match cfg.Updater — a checkpoint from
// one lifecycle cannot silently resume under another.
func NewRestored(states []LaneState, cfg Config) (*Pipeline, error) {
	if len(states) == 0 {
		return nil, errors.New("stream: no lane states")
	}
	want, err := engine.ParseUpdaterKind(string(cfg.Updater))
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	ups := make([]engine.Updater, len(states))
	for i, st := range states {
		if st.Updater.Kind != want {
			return nil, fmt.Errorf("stream: lane %d state was captured under the %q updater but the pipeline is configured for %q", i, st.Updater.Kind, want)
		}
		up, err := engine.RestoreUpdater(st.Updater, cfg.updaterConfig())
		if err != nil {
			return nil, fmt.Errorf("stream: lane %d: %w", i, err)
		}
		ups[i] = up
	}
	return newPipeline(ups, cfg)
}

// newPipeline wires lanes around ready lifecycles — the shared tail of New
// and NewRestored.
func newPipeline(ups []engine.Updater, cfg Config) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	p := &Pipeline{
		cfg:  cfg,
		in:   make(chan Sample, cfg.Buffer),
		out:  make(chan Verdict, cfg.Buffer),
		agg:  make(chan laneResult, cfg.Buffer*len(ups)),
		done: make(chan struct{}),
	}
	for i, up := range ups {
		l := &lane{id: i, up: up, in: make(chan laneTask, cfg.Buffer), p: up.Model().P()}
		if cfg.RefitEvery > 0 {
			l.refitIn = make(chan *mat.Matrix, 1)
			p.refitWG.Add(1)
			go p.refitter(l)
		}
		p.lanes = append(p.lanes, l)
		p.workerWG.Add(1)
		go p.laneWorker(l)
	}
	p.workerWG.Add(1)
	go p.dispatch()
	go p.aggregate()
	return p, nil
}

// Lanes returns the number of detector lanes.
func (p *Pipeline) Lanes() int { return len(p.lanes) }

// Generations returns each lane's current model generation: the number of
// adopted full refits.
func (p *Pipeline) Generations() []uint64 {
	out := make([]uint64, len(p.lanes))
	for i, l := range p.lanes {
		out[i] = l.up.Model().Gen()
	}
	return out
}

// Freshness returns each lane's model-freshness gauges.
func (p *Pipeline) Freshness() []engine.Freshness {
	out := make([]engine.Freshness, len(p.lanes))
	for i, l := range p.lanes {
		out[i] = l.up.Freshness()
	}
	return out
}

// Submit feeds one timebin into the pipeline. Vectors are validated here so
// the concurrent stages never see a malformed sample; the pipeline retains
// the slices, so callers streaming from a reused buffer must copy first.
// Submit blocks when the pipeline is more than Buffer bins behind.
func (p *Pipeline) Submit(s Sample) error {
	if len(s.Vecs) != len(p.lanes) {
		return fmt.Errorf("stream: sample has %d vectors, want %d", len(s.Vecs), len(p.lanes))
	}
	for i, x := range s.Vecs {
		if len(x) != p.lanes[i].p {
			return fmt.Errorf("stream: lane %d vector length %d, want %d", i, len(x), p.lanes[i].p)
		}
	}
	p.closeMu.Lock()
	defer p.closeMu.Unlock()
	if p.closed {
		return errors.New("stream: submit after Close")
	}
	p.in <- s
	return nil
}

// Barrier injects a checkpoint barrier into the submission order: a
// control message that fans out to every lane behind all earlier Submits,
// captures each lane's state after the lane has scored everything before
// it, and surfaces in the verdict stream as a Verdict with a non-nil
// Barrier field, ordered exactly where this call fell among the Submits.
// It does not wait for that verdict: token rides along on Barrier.Token for
// the consumer to recognise it by. Like Submit it blocks when the pipeline
// is Buffer bins behind, and fails after Close.
func (p *Pipeline) Barrier(token any) error {
	p.closeMu.Lock()
	defer p.closeMu.Unlock()
	if p.closed {
		return errors.New("stream: barrier after Close")
	}
	p.in <- Sample{barrier: &Barrier{Lanes: make([]LaneState, len(p.lanes)), Token: token}}
	return nil
}

// Close signals end of input. It is idempotent and safe to call
// concurrently with Submit; it does not wait — drain Verdicts (the channel
// is closed after the final verdict) or call Wait.
func (p *Pipeline) Close() {
	p.closeMu.Lock()
	defer p.closeMu.Unlock()
	if !p.closed {
		p.closed = true
		close(p.in)
	}
}

// Verdicts returns the ordered verdict stream. The channel is closed once
// every submitted bin has been scored and merged.
func (p *Pipeline) Verdicts() <-chan Verdict { return p.out }

// Wait blocks until the pipeline has emitted every verdict (the consumer
// must be draining Verdicts) and all background refits have settled, then
// returns the first background error — a lane scoring or attribution
// failure, or a model update failure. A failed run still delivers a
// complete, ordered verdict stream (failed bins carry zero-valued
// placeholder points), so Wait is the only place a background failure
// surfaces.
func (p *Pipeline) Wait() error {
	<-p.done
	p.refitWG.Wait()
	p.errMu.Lock()
	defer p.errMu.Unlock()
	if p.err != nil {
		return p.err
	}
	return p.refitErr
}

// dispatch fans each submitted sample out to every lane, stamping the
// global sequence number the aggregator reorders on.
func (p *Pipeline) dispatch() {
	defer p.workerWG.Done()
	for s := range p.in {
		seq := p.seq
		p.seq++
		if s.barrier != nil {
			for _, l := range p.lanes {
				l.in <- laneTask{seq: seq, barrier: s.barrier}
			}
			continue
		}
		for i, l := range p.lanes {
			l.in <- laneTask{seq: seq, bin: s.Bin, x: s.Vecs[i]}
		}
	}
	for _, l := range p.lanes {
		close(l.in)
	}
}

// laneWorker scores its lane's vectors in batches against whatever model is
// current, attributes alarms to OD flows against the same model, and feeds
// every scored bin to the lane's updater. An in-band updater (the
// incremental tracker) advances the scoring model inside Observe, so the
// worker flushes — scores — each bin before observing it: a bin must never
// be scored by a model that has already absorbed it. An out-of-band
// updater leaves the model alone between refit swaps, so the worker batches:
// it flushes when the batch is full or its queue is empty — BatchSize-row
// products under backlog, no waiting for later bins when idle.
//
// Scoring and attribution failures do not panic: a panic on a background
// goroutine would kill the whole process on the first malformed batch. The
// first error is recorded on the pipeline (surfaced by Err and Wait) and
// the lane keeps draining its queue, emitting zero-valued placeholder
// results so the ordered verdict stream stays complete — consumers see
// every submitted bin, then learn from Wait that the run failed.
func (p *Pipeline) laneWorker(l *lane) {
	defer p.workerWG.Done()
	if l.refitIn != nil {
		defer close(l.refitIn)
	}
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
				p.agg <- laneResult{lane: l.id, seq: t.seq, bin: t.bin, gen: m.Gen()}
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
			p.agg <- laneResult{lane: l.id, seq: t.seq, bin: t.bin, pt: pts[i], gen: m.Gen(), att: att}
		}
		batch, vecs = batch[:0], vecs[:0]
	}
	for t := range l.in {
		if t.barrier != nil {
			// Score everything before the barrier first, so the captured
			// state (model, window, tracker, refit phase) is exactly the
			// state as of the last pre-barrier bin. Each lane writes its own
			// slot; the send to the aggregator publishes it.
			flush()
			t.barrier.Lanes[l.id] = LaneState{Updater: l.up.State()}
			p.agg <- laneResult{lane: l.id, seq: t.seq, bin: -1, barrier: t.barrier}
			continue
		}
		batch = append(batch, t)
		vecs = append(vecs, t.x)
		if inBand || len(batch) >= p.cfg.BatchSize || len(l.in) == 0 {
			flush()
		}
		p.observe(l, t.x)
	}
	flush()
}

// observe feeds one scored bin to the lane's lifecycle. A returned
// snapshot is handed to the refitter; the updater guarantees at most one
// outstanding hand-off, so the capacity-1 send never blocks. An update
// failure degrades the pipeline — the previous model keeps scoring.
func (p *Pipeline) observe(l *lane, x []float64) {
	snap, err := l.up.Observe(x)
	if err != nil {
		p.failRefit(fmt.Errorf("stream: lane %d update: %w", l.id, err))
	}
	if snap != nil && l.refitIn != nil {
		l.refitIn <- snap
	}
}

// refitter fits replacement models on window snapshots and hands them back
// to the lifecycle. The fit is warm-started from the current generation's
// basis; adoption is a single atomic store (refit lifecycle) or deferred
// to the next Observe (incremental drift correction): in-flight batches
// finish on the old model, the next batch loads the new one.
func (p *Pipeline) refitter(l *lane) {
	defer p.refitWG.Done()
	for snap := range l.refitIn {
		// FaultRefit: an armed Delay makes this refit slow (it holds the
		// hand-off slot, delaying subsequent refits — never scoring); an
		// armed Err fails it, leaving the pipeline degraded on the current
		// generation.
		if err := p.cfg.Faults.Fire(FaultRefit); err != nil {
			p.failRefit(fmt.Errorf("stream: lane %d refit: %w", l.id, err))
			l.up.Install(nil)
			continue
		}
		cur := l.up.Model()
		next, err := cur.Refit(snap)
		if err != nil {
			p.failRefit(fmt.Errorf("stream: lane %d refit: %w", l.id, err))
			l.up.Install(nil) // keep scoring on the current model
			continue
		}
		if err := next.FitWarning(); err != nil {
			// Unconverged, not unusable: its last iterate is still closer
			// to the window than the generation it replaces.
			p.failRefit(fmt.Errorf("stream: lane %d refit: %w", l.id, err))
		}
		l.up.Install(next)
	}
}

// aggregate merges per-lane results back into per-bin verdicts, emitted
// strictly in submission order.
func (p *Pipeline) aggregate() {
	go func() {
		p.workerWG.Wait()
		close(p.agg)
	}()
	type partial struct {
		v    Verdict
		left int
	}
	pending := make(map[int]*partial)
	next := 0
	for r := range p.agg {
		pt, ok := pending[r.seq]
		if !ok {
			if r.barrier != nil {
				pt = &partial{v: Verdict{Bin: -1, Barrier: r.barrier}, left: len(p.lanes)}
			} else {
				pt = &partial{
					v: Verdict{
						Bin:     r.bin,
						Points:  make([]engine.Point, len(p.lanes)),
						Gens:    make([]uint64, len(p.lanes)),
						Attribs: make([][]identify.Attribution, len(p.lanes)),
					},
					left: len(p.lanes),
				}
			}
			pending[r.seq] = pt
		}
		if r.barrier == nil {
			pt.v.Points[r.lane] = r.pt
			pt.v.Gens[r.lane] = r.gen
			pt.v.Attribs[r.lane] = r.att
		}
		pt.left--
		for {
			done, ok := pending[next]
			if !ok || done.left > 0 {
				break
			}
			delete(pending, next)
			p.out <- done.v
			next++
		}
	}
	close(p.out)
	close(p.done)
}
