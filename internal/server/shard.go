// The sharded driver of the ingest state machine: receiver pool → one
// partition per shard goroutine → watermark-driven merge coordinator → the
// single central detector.
//
// The partition key is the export engine. An engine is an origin PoP, and
// the OD index space is laid out origin-major, so routing whole engines to
// shards gives each shard a disjoint set of OD columns — the merged dense
// vector is an exact concatenation, never a sum of contended cells — and
// keeps each (format, engine) sequence cursor and dedupe ring owned by
// exactly one goroutine. Scoring stays central: the subspace method is
// global, so the one StreamDetector consumes the merged full-length
// vectors in bin order, exactly as the synchronous driver feeds it.
//
// Bin-close correctness (the barrier argument, in short — DESIGN.md E18
// has the long form): the coordinator owns the watermark and is the only
// issuer of seal epochs, each with a strictly increasing `through` bin.
// Shard channels are FIFO, so when a shard answers seal N it has binned
// every batch enqueued before the seal, and its partition drops any later
// batch for a bin ≤ N as late — a sealed partition can never reopen. An
// epoch completes only when all shards answered, epochs complete in issue
// order, and only completed epochs are submitted; therefore the detector
// sees every bin exactly once, fully merged, in ascending order.
package server

import (
	"sort"
	"sync"

	"netwide/internal/checkpoint"
	"netwide/internal/flowwire"
)

const (
	// shardQueueDepth bounds each receiver→shard channel (in batches).
	// Bounded so a stalled shard applies backpressure to the receivers
	// instead of growing an unbounded queue; deep enough to ride out a
	// shard's seal handoff.
	shardQueueDepth = 256
	// maxOutstandingEpochs caps seal epochs in flight. With the merge
	// channel sized len(shards)*(maxOutstandingEpochs+1), every shard can
	// answer every outstanding epoch — plus the drain's final flush epoch
	// — without blocking, which is the pipeline's deadlock-freedom
	// argument: shards always drain their queues.
	maxOutstandingEpochs = 4
)

const (
	msgBatch = iota
	msgSeal
	msgDiscard
	msgSync
	msgCapture
	msgStop
)

// shardMsg is the one message type on a receiver→shard channel. kind
// selects which fields are meaningful: a decoded batch (msgBatch, with
// the pooled record slice to return), a seal or discard boundary, a sync
// ack request, a checkpoint capture request, or stop.
type shardMsg struct {
	kind    int
	batch   flowwire.Batch
	recs    *[]flowwire.Record
	epoch   uint64
	through int
	ack     chan<- struct{}
	snap    chan<- checkpoint.ShardState
}

// sealReply is one shard's answer to one seal epoch: the detached bins of
// its partition through the epoch's boundary.
type sealReply struct {
	epoch uint64
	bins  []submittedBin
}

const (
	ctlQuiesce = iota
	ctlFlush
	ctlCapture
	ctlStop
)

// coordMsg is a control-plane request to the coordinator. ctlQuiesce
// settles the pipeline — receivers paused, shard queues and outstanding
// epochs drained — and resumes it; ctlFlush also seals everything through
// the watermark (the graceful drain); ctlCapture settles (and flushes, when
// flush is set), starts a checkpoint ticket from the settled state and
// sends it back on ticket; ctlStop exits the loop. The others close reply.
type coordMsg struct {
	kind   int
	flush  bool
	reply  chan struct{}
	ticket chan *cpTicket
}

// recPool recycles decoded-record slices across receivers and shards.
// flowwire records are pure values (no aliasing into the packet buffer),
// so a slice can cross goroutines and be reused freely once its shard has
// folded it in.
var recPool = sync.Pool{New: func() any {
	s := make([]flowwire.Record, 0, 64)
	return &s
}}

// startPipeline allocates the channels and launches the shard workers and
// the coordinator, seeding the coordinator's cursors from whatever restore
// left behind.
func (s *Server) startPipeline() {
	for _, p := range s.parts {
		p.ch = make(chan shardMsg, shardQueueDepth)
	}
	s.mergeCh = make(chan sealReply, len(s.parts)*(maxOutstandingEpochs+1))
	s.coordBell = make(chan struct{}, 1)
	s.coordCtl = make(chan coordMsg)
	s.coordDone = make(chan struct{})
	watermark := int(s.ctr.watermark.Load())
	sealTarget := int(s.ctr.lastClosed.Load())
	for _, p := range s.parts {
		sealTarget = max(sealTarget, p.closedThrough)
	}
	s.pendingObs.Store(int64(watermark))
	s.resetBin.Store(-1)
	s.shardWG.Add(len(s.parts))
	for _, p := range s.parts {
		go s.shardLoop(p)
	}
	go s.coordinate(watermark, sealTarget)
}

// route decodes one datagram on the receiver's own registry into a pooled
// record slice and hands the batch to its engine's shard. The channel send
// applies backpressure when the shard is behind — by design, the receiver
// slows rather than the queue growing without bound. pauseMu's read side
// makes a datagram atomic with respect to checkpoint capture: the
// coordinator's write lock waits out in-flight datagrams, then finds every
// batch either fully routed or not started.
func (s *Server) route(r *receiver, pkt []byte) {
	s.pauseMu.RLock()
	defer s.pauseMu.RUnlock()
	bufp := recPool.Get().(*[]flowwire.Record)
	b, recs, ok := s.decode(r, pkt, (*bufp)[:0])
	*bufp = recs
	if !ok {
		recPool.Put(bufp)
		return
	}
	// Zero-record batches (v9/IPFIX template-only packets) still route:
	// the shard owns the stream's sequence cursor.
	s.parts[s.shardOf(b.Engine)].ch <- shardMsg{kind: msgBatch, batch: b, recs: bufp}
}

// shardLoop is one shard: run batches through its partition, answer
// seals, serve discards, syncs and captures. The partition's state is
// local to this goroutine; what a batch asks of the watermark goes to the
// coordinator through the shared cursors.
func (s *Server) shardLoop(p *partition) {
	defer s.shardWG.Done()
	for m := range p.ch {
		switch m.kind {
		case msgBatch:
			act, bin := p.ingest(m.batch, *m.recs, int(s.pendingObs.Load()))
			recPool.Put(m.recs)
			switch act {
			case actRaise:
				s.raiseObs(bin)
			case actStranded:
				s.resetBin.Store(int64(bin))
				s.ringCoordBell()
			}
		case msgSeal:
			// Never blocks: mergeCh is sized for every outstanding epoch.
			s.mergeCh <- sealReply{epoch: m.epoch, bins: p.seal(m.through)}
		case msgDiscard:
			p.discard(m.through)
		case msgSync:
			m.ack <- struct{}{}
		case msgCapture:
			m.snap <- p.state()
		case msgStop:
			return
		}
	}
}

// raiseObs lifts the shared highest-observed-bin cursor (CAS max) and
// wakes the coordinator. This is the only watermark input shards produce;
// the coordinator is the only watermark writer.
func (s *Server) raiseObs(bin int) {
	b := int64(bin)
	for {
		cur := s.pendingObs.Load()
		if cur >= b {
			return
		}
		if s.pendingObs.CompareAndSwap(cur, b) {
			s.ringCoordBell()
			return
		}
	}
}

// ringCoordBell wakes the coordinator without blocking (the bell holds at
// most one pending wake; the coordinator always re-reads the shared
// cursors when it wakes).
func (s *Server) ringCoordBell() {
	select {
	case s.coordBell <- struct{}{}:
	default:
	}
}

// epochState is one outstanding seal epoch: how many shards still owe an
// answer, and the merged bins so far. Each OD column is owned by one
// shard, so merging is elementwise addition into disjoint cells — exact in
// float64 (the sums are integer counts below 2^53).
type epochState struct {
	id      uint64
	pending int
	bins    map[int]*binAcc
}

// coordinate is the merge layer: the single owner of the watermark, the
// seal schedule, the detector submit order and — because a snapshot's
// ingest state must be one cut of that order — checkpoint capture. It
// starts from the restored cursors (watermark, sealTarget) so a warm start
// never re-seals what the snapshot already closed.
func (s *Server) coordinate(watermark, sealTarget int) {
	defer close(s.coordDone)
	var (
		epochs    []*epochState
		nextEpoch uint64
		// closedSince counts bins submitted that the checkpoint cadence has
		// not been told of yet.
		closedSince int
	)
	issueSeal := func(through int) {
		ep := &epochState{id: nextEpoch, pending: len(s.parts), bins: map[int]*binAcc{}}
		nextEpoch++
		epochs = append(epochs, ep)
		for _, p := range s.parts {
			p.ch <- shardMsg{kind: msgSeal, epoch: ep.id, through: through}
		}
		sealTarget = through
	}
	finish := func(ep *epochState) {
		closed := make([]submittedBin, 0, len(ep.bins))
		for bin, acc := range ep.bins {
			closed = append(closed, submittedBin{bin, acc})
		}
		sort.Slice(closed, func(i, j int) bool { return closed[i].bin < closed[j].bin })
		closedSince += s.closeBins(closed)
	}
	fold := func(rep sealReply) {
		for _, ep := range epochs {
			if ep.id != rep.epoch {
				continue
			}
			ep.pending--
			for _, sb := range rep.bins {
				if acc := ep.bins[sb.bin]; acc == nil {
					ep.bins[sb.bin] = sb.acc
				} else {
					for i := range acc.bytes {
						acc.bytes[i] += sb.acc.bytes[i]
						acc.packets[i] += sb.acc.packets[i]
						acc.flows[i] += sb.acc.flows[i]
					}
					acc.records += sb.acc.records
				}
			}
			return
		}
	}
	completeReady := func() {
		// Epochs complete strictly in issue order: their through bounds
		// increase, so in-order completion is what keeps the submit stream
		// ascending.
		for len(epochs) > 0 && epochs[0].pending == 0 {
			ep := epochs[0]
			epochs = epochs[1:]
			finish(ep)
		}
	}
	drainEpochs := func() {
		for len(epochs) > 0 {
			fold(<-s.mergeCh)
			completeReady()
		}
	}
	step := func() {
		if rb := int(s.resetBin.Swap(-1)); rb >= 0 {
			// A partition may rewind its seal point only with no seal in
			// flight (see partition.discard): complete every epoch first,
			// so that lastClosed is the last bin submitted and nothing
			// above it is on its way.
			drainEpochs()
			for _, p := range s.parts {
				p.ch <- shardMsg{kind: msgDiscard, through: rb + s.cfg.MaxAhead}
			}
			watermark, sealTarget = rb, int(s.ctr.lastClosed.Load())
			s.ctr.watermark.Store(int64(rb))
			s.pendingObs.Store(int64(rb))
			s.ctr.watermarkResets.Add(1)
		}
		if obs := int(s.pendingObs.Load()); obs > watermark {
			watermark = obs
			s.ctr.watermark.Store(int64(watermark))
		}
		if through := watermark - s.cfg.Grace; through > sealTarget && len(epochs) < maxOutstandingEpochs {
			issueSeal(through)
		}
	}
	// settle brings the pipeline to a barrier — receivers paused, shard
	// queues drained, every closeable bin sealed, merged and submitted (with
	// flush: every bin through the watermark itself, grace abandoned — no
	// more traffic is coming to fill it) — so that the shards' state is
	// exactly "everything through sealTarget submitted, the rest open". The
	// caller releases pauseMu.
	settle := func(flush bool) {
		s.pauseMu.Lock()
		s.syncShards()
		step()
		drainEpochs()
		if flush && watermark > sealTarget {
			issueSeal(watermark)
			drainEpochs()
		}
	}
	// captureSettled starts one sharded snapshot (the caller holds cpSlot):
	// with the pipeline settled, the counters, every shard's partition state
	// and the template caches all describe the same instant, and the barrier
	// is injected right behind the last submitted bin. The pause lasts for
	// the copy; the barrier's trip and the disk are waited for elsewhere.
	captureSettled := func(flush bool) *cpTicket {
		settle(flush)
		defer s.pauseMu.Unlock()
		s.binsSinceCp.Add(int64(closedSince))
		closedSince = 0
		shards := make([]checkpoint.ShardState, len(s.parts))
		snap := make(chan checkpoint.ShardState, 1)
		for i, p := range s.parts {
			p.ch <- shardMsg{kind: msgCapture, snap: snap}
			shards[i] = <-snap
		}
		return s.capture(shards...)
	}
	for {
		select {
		case <-s.coordBell:
			step()
			completeReady()
		case rep := <-s.mergeCh:
			fold(rep)
			completeReady()
			step()
		case msg := <-s.coordCtl:
			switch msg.kind {
			case ctlQuiesce, ctlFlush:
				settle(msg.kind == ctlFlush)
				s.pauseMu.Unlock()
				close(msg.reply)
			case ctlCapture:
				msg.ticket <- captureSettled(msg.flush)
			case ctlStop:
				close(msg.reply)
				return
			}
		}
		if n := closedSince; n > 0 {
			closedSince = 0
			if s.cadenceDue(n) {
				captureSettled(false)
			}
		}
	}
}

// syncShards barriers every shard channel: when it returns, every batch
// enqueued before the call has been folded into its shard's bins.
func (s *Server) syncShards() {
	ack := make(chan struct{}, len(s.parts))
	for _, p := range s.parts {
		p.ch <- shardMsg{kind: msgSync, ack: ack}
	}
	for range s.parts {
		<-ack
	}
}

// coordDo runs one control request on the coordinator and waits for it.
func (s *Server) coordDo(kind int) {
	reply := make(chan struct{})
	s.coordCtl <- coordMsg{kind: kind, reply: reply}
	<-reply
}

// quiesce settles the whole pipeline to a consistent barrier — receivers
// paused, shard queues drained, every closeable bin sealed, merged and
// submitted — then resumes it. Tests and benchmarks use it to read
// deterministic stats; checkpoint capture settles the same way.
func (s *Server) quiesce() { s.coordDo(ctlQuiesce) }

// coordCapture has the coordinator start one snapshot (see
// captureSettled in coordinate) and returns its ticket. The caller holds cpSlot.
func (s *Server) coordCapture(flush bool) *cpTicket {
	ticket := make(chan *cpTicket, 1)
	s.coordCtl <- coordMsg{kind: ctlCapture, flush: flush, ticket: ticket}
	return <-ticket
}
