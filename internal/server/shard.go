// The sharded ingest pipeline: receiver pool → OD-sharded binning workers
// → watermark-driven merge coordinator → the single central detector.
//
// The partition key is the export engine. An engine is an origin PoP, and
// the OD index space is laid out origin-major, so routing whole engines to
// shards gives each shard a disjoint set of OD columns — the merged dense
// vector is an exact concatenation, never a sum of contended cells — and
// keeps each (format, engine) sequence cursor and dedupe ring owned by
// exactly one goroutine. Scoring stays central: the subspace method is
// global, so the one StreamDetector consumes the merged full-length
// vectors in bin order, exactly as the synchronous path feeds it.
//
// Bin-close correctness (the barrier argument, in short — DESIGN.md E18
// has the long form): the coordinator owns the watermark and is the only
// issuer of seal epochs, each with a strictly increasing `through` bin.
// Shard channels are FIFO, so when a shard answers seal N it has binned
// every batch enqueued before the seal, and it drops any later batch for
// a bin ≤ N as late — a sealed partition can never reopen. An epoch
// completes only when all shards answered, epochs complete in issue
// order, and only completed epochs are submitted; therefore the detector
// sees every bin exactly once, fully merged, in ascending order.
package server

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"netwide/internal/checkpoint"
	"netwide/internal/flowwire"
	"netwide/internal/traffic"
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

// receiver is one UDP socket's ingest front end: its own decoder registry
// (flowwire registries are not safe for concurrent use, and v9/IPFIX
// template state is per-socket anyway — the kernel hashes an exporter's
// packets to one socket, and exporters resend templates periodically) and
// its slice of the datagram counters.
type receiver struct {
	id   int
	reg  *flowwire.Registry
	conn *net.UDPConn

	packets, badPackets, bytes atomic.Uint64
}

// shardWorker owns one partition of the OD space: its open-bin
// accumulators, sequence cursors and dedupe rings are touched only by its
// goroutine (and, between barriers, by restore before the goroutine
// starts). The atomic fields are its slice of the stats counters, read
// lock-free by /stats.
type shardWorker struct {
	id int
	ch chan shardMsg

	// Single-threaded worker state.
	bins          map[int]*binAcc
	seq           map[engineKey]*engineSeq
	sealedThrough int
	behindStreak  int

	// Stats mirrors.
	records, duplicates, lateRecords,
	wildRecords, unroutable atomic.Uint64
	binsOpen, sealed atomic.Int64
}

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
	shard int
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

// buildPipeline allocates the receivers, shard workers and channels. No
// goroutine starts here: restore must be able to fill shard state first.
func (s *Server) buildPipeline() error {
	s.recvs = make([]*receiver, s.cfg.Receivers)
	for i := range s.recvs {
		reg, err := flowwire.NewRegistry(s.cfg.Formats...)
		if err != nil {
			return err
		}
		s.recvs[i] = &receiver{id: i, reg: reg}
	}
	s.shards = make([]*shardWorker, s.cfg.Shards)
	for i := range s.shards {
		w := &shardWorker{
			id:            i,
			ch:            make(chan shardMsg, shardQueueDepth),
			bins:          map[int]*binAcc{},
			seq:           map[engineKey]*engineSeq{},
			sealedThrough: -1,
		}
		w.sealed.Store(-1)
		s.shards[i] = w
	}
	s.mergeCh = make(chan sealReply, len(s.shards)*(maxOutstandingEpochs+1))
	s.coordBell = make(chan struct{}, 1)
	s.coordCtl = make(chan coordMsg)
	s.coordDone = make(chan struct{})
	return nil
}

// startPipeline launches the shard workers and the coordinator, seeding
// the coordinator's cursors from whatever restore left behind.
func (s *Server) startPipeline() {
	watermark := int(s.ctr.watermark.Load())
	sealTarget := int(s.ctr.lastClosed.Load())
	for _, w := range s.shards {
		if w.sealedThrough > sealTarget {
			sealTarget = w.sealedThrough
		}
	}
	s.pendingObs.Store(int64(watermark))
	s.shardWG.Add(len(s.shards))
	for _, w := range s.shards {
		go s.shardLoop(w)
	}
	go s.coordinate(watermark, sealTarget)
}

// receiverLoop drains one socket until Drain or Kill closes it.
func (s *Server) receiverLoop(r *receiver) {
	defer s.readersWG.Done()
	buf := make([]byte, 4096)
	for {
		n, _, err := r.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		s.ingestOn(r, buf[:n])
	}
}

// ingestOn runs one datagram through a receiver: decode on the receiver's
// own registry into a pooled record slice, attribute the packet counters,
// and route the batch to its engine's shard. The channel send applies
// backpressure when the shard is behind — by design, the receiver slows
// rather than the queue growing without bound. pauseMu's read side makes
// a datagram atomic with respect to checkpoint capture: the coordinator's
// write lock waits out in-flight datagrams, then finds every batch either
// fully routed or not started.
func (s *Server) ingestOn(r *receiver, pkt []byte) {
	s.pauseMu.RLock()
	defer s.pauseMu.RUnlock()
	bufp := recPool.Get().(*[]flowwire.Record)
	b, recs, err := r.reg.Decode(pkt, (*bufp)[:0])
	*bufp = recs
	s.ctr.packets.Add(1)
	r.packets.Add(1)
	r.bytes.Add(uint64(len(pkt)))
	var pc *protoCounters
	if b.Format != flowwire.FormatUnknown && b.Format < flowwire.NumFormats {
		pc = &s.proto[b.Format]
		pc.packets.Add(1)
	}
	if err != nil {
		s.ctr.badPackets.Add(1)
		if pc != nil {
			pc.badPackets.Add(1)
		}
		recPool.Put(bufp)
		return
	}
	// Zero-record batches (v9/IPFIX template-only packets) still route:
	// the shard owns the stream's sequence cursor.
	s.shards[s.shardOf(b.Engine)].ch <- shardMsg{kind: msgBatch, batch: b, recs: bufp}
}

// shardLoop is one binning worker: accumulate batches, answer seals,
// serve syncs and captures. All of the worker's mutable state is local to
// this goroutine.
func (s *Server) shardLoop(w *shardWorker) {
	defer s.shardWG.Done()
	for m := range w.ch {
		switch m.kind {
		case msgBatch:
			s.shardIngest(w, m.batch, *m.recs)
			recPool.Put(m.recs)
		case msgSeal:
			bins := detachBins(w.bins, m.through)
			if m.through > w.sealedThrough {
				w.sealedThrough = m.through
			}
			w.sealed.Store(int64(w.sealedThrough))
			w.binsOpen.Store(int64(len(w.bins)))
			// Never blocks: mergeCh is sized for every outstanding epoch.
			s.mergeCh <- sealReply{shard: w.id, epoch: m.epoch, bins: bins}
		case msgDiscard:
			if wild := discardWildBins(w.bins, m.through); wild > 0 {
				s.ctr.wildRecords.Add(wild)
				w.wildRecords.Add(wild)
			}
			w.binsOpen.Store(int64(len(w.bins)))
			w.behindStreak = 0
		case msgSync:
			m.ack <- struct{}{}
		case msgCapture:
			m.snap <- shardStateOf(w.bins, w.seq, w.sealedThrough, w.behindStreak)
		case msgStop:
			return
		}
	}
}

// shardIngest is the sharded counterpart of the synchronous IngestPacket
// body after decode: sequence dedupe on the shard's own cursors, the
// late/wild gates, and accumulation into the shard's partition. The bin
// gate is the shard's sealedThrough — the local mirror of LastClosed that
// makes "a sealed partition never reopens" a single-goroutine invariant.
func (s *Server) shardIngest(w *shardWorker, b flowwire.Batch, recs []flowwire.Record) {
	pc := &s.proto[b.Format]
	if !s.sequenceCheck(w.seq, b) {
		s.ctr.duplicates.Add(1)
		w.duplicates.Add(1)
		pc.duplicates.Add(1)
		return
	}
	if int64(b.UnixSecs) < int64(s.cfg.Epoch) {
		s.ctr.lateRecords.Add(uint64(len(recs)))
		w.lateRecords.Add(uint64(len(recs)))
		return
	}
	bin := int(int64(b.UnixSecs)-int64(s.cfg.Epoch)) / traffic.BinSeconds
	if bin <= w.sealedThrough {
		s.ctr.lateRecords.Add(uint64(len(recs)))
		w.lateRecords.Add(uint64(len(recs)))
		return
	}
	// Gate wild timestamps against the shared observation cursor, not the
	// coordinator-published watermark: shards raise pendingObs synchronously
	// as they accept traffic, while s.ctr.watermark only moves when the
	// coordinator goroutine gets scheduled. On a starved scheduler the
	// watermark can lag the live stream by more than MaxAhead bins, and
	// gating on it would drop legitimate in-order traffic as wild. The
	// security property is unchanged — pendingObs is raised only by
	// accepted routable traffic, never by a packet this gate refuses.
	obs := int(s.pendingObs.Load())
	if obs >= 0 && bin > obs+s.cfg.MaxAhead {
		s.ctr.wildRecords.Add(uint64(len(recs)))
		w.wildRecords.Add(uint64(len(recs)))
		return
	}
	accepted, unroutable, wild := s.accumulateInto(w.bins, bin, b, recs)
	if unroutable > 0 {
		s.ctr.unroutable.Add(uint64(unroutable))
		w.unroutable.Add(uint64(unroutable))
	}
	if wild > 0 {
		s.ctr.wildRecords.Add(uint64(wild))
		w.wildRecords.Add(uint64(wild))
	}
	if accepted > 0 {
		s.ctr.records.Add(uint64(accepted))
		w.records.Add(uint64(accepted))
		pc.records.Add(uint64(accepted))
	}
	w.binsOpen.Store(int64(len(w.bins)))
	switch {
	case accepted == 0:
		// Only routable traffic gets a say in the watermark.
	case bin > obs:
		s.raiseObs(bin)
		w.behindStreak = 0
	case obs-bin > s.cfg.MaxAhead:
		// Stranded-watermark quorum, per shard: the shard seeing the live
		// stream is the one whose streak fills.
		w.behindStreak++
		if w.behindStreak >= watermarkQuorum {
			s.resetBin.Store(int64(bin))
			s.resetReq.Store(true)
			s.ringCoordBell()
			w.behindStreak = 0
		}
	default:
		w.behindStreak = 0
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

// epochState is one outstanding seal epoch: the boundary it closes
// through, how many shards still owe an answer, and the merged bins so
// far. Each OD column is owned by one shard, so merging is elementwise
// addition into disjoint cells — exact in float64 (the sums are integer
// counts below 2^53).
type epochState struct {
	id      uint64
	through int
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
		ep := &epochState{id: nextEpoch, through: through, pending: len(s.shards), bins: map[int]*binAcc{}}
		nextEpoch++
		epochs = append(epochs, ep)
		for _, w := range s.shards {
			w.ch <- shardMsg{kind: msgSeal, epoch: ep.id, through: through}
		}
		sealTarget = through
	}
	finish := func(ep *epochState) {
		if len(ep.bins) == 0 {
			return
		}
		closed := make([]submittedBin, 0, len(ep.bins))
		for bin, acc := range ep.bins {
			closed = append(closed, submittedBin{bin, acc})
		}
		sort.Slice(closed, func(i, j int) bool { return closed[i].bin < closed[j].bin })
		s.ctr.lastClosed.Store(int64(closed[len(closed)-1].bin))
		s.ctr.binsClosed.Add(int64(len(closed)))
		s.submit(closed)
		closedSince += len(closed)
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
	step := func() {
		if s.resetReq.CompareAndSwap(true, false) {
			rb := int(s.resetBin.Load())
			for _, w := range s.shards {
				w.ch <- shardMsg{kind: msgDiscard, through: rb + s.cfg.MaxAhead}
			}
			watermark = rb
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
	drainEpochs := func() {
		for len(epochs) > 0 {
			fold(<-s.mergeCh)
			completeReady()
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
	// capture starts one sharded snapshot (the caller holds cpSlot): with
	// the pipeline settled, the counters, every shard's partition state and
	// the template caches all describe the same instant, and the barrier is
	// injected right behind the last submitted bin. The pause lasts for the
	// copy; the barrier's trip and the disk are waited for elsewhere.
	capture := func(flush bool) *cpTicket {
		settle(flush)
		defer s.pauseMu.Unlock()
		s.binsSinceCp.Add(int64(closedSince))
		closedSince = 0
		t := s.newTicket()
		snap := make(chan checkpoint.ShardState, 1)
		for _, w := range s.shards {
			w.ch <- shardMsg{kind: msgCapture, snap: snap}
			t.st.Server.Shards = append(t.st.Server.Shards, <-snap)
		}
		regs := make([]*flowwire.Registry, len(s.recvs))
		for i, r := range s.recvs {
			regs[i] = r.reg
		}
		t.st.Server.Templates = templatesOf(regs...)
		return s.inject(t)
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
				msg.ticket <- capture(msg.flush)
			case ctlStop:
				close(msg.reply)
				return
			}
		}
		if n := closedSince; n > 0 {
			closedSince = 0
			if s.cadenceDue(n) {
				capture(false)
			}
		}
	}
}

// syncShards barriers every shard channel: when it returns, every batch
// enqueued before the call has been folded into its shard's bins.
func (s *Server) syncShards() {
	ack := make(chan struct{}, len(s.shards))
	for _, w := range s.shards {
		w.ch <- shardMsg{kind: msgSync, ack: ack}
	}
	for range s.shards {
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

// coordCapture has the coordinator start one snapshot (see capture in
// coordinate) and returns its ticket. The caller holds cpSlot.
func (s *Server) coordCapture(flush bool) *cpTicket {
	ticket := make(chan *cpTicket, 1)
	s.coordCtl <- coordMsg{kind: ctlCapture, flush: flush, ticket: ticket}
	return <-ticket
}

func (s *Server) stopShards() {
	for _, w := range s.shards {
		w.ch <- shardMsg{kind: msgStop}
	}
	s.shardWG.Wait()
}
