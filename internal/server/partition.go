// One binning partition and the gates every decoded batch passes on its
// way into a bin (see the package comment). A partition is plain per-shard
// state of the collector (collector.go), which owns the watermark and bin
// close and which the partition only tells what a batch means for the
// watermark. DESIGN.md E24 states which gate reads which cursor and why.
package server

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"netwide/internal/checkpoint"
	"netwide/internal/engine"
	"netwide/internal/flowwire"
	"netwide/internal/routing"
	"netwide/internal/topology"
	"netwide/internal/traffic"
)

const (
	// dedupeWindow is how many recent packet sequence numbers each engine
	// remembers for exact duplicate detection. A replayed packet older
	// than the window slips through — the window trades a little replay
	// protection for not discarding merely-reordered traffic.
	dedupeWindow = 64
	// reorderTolerance is how far (in the stream's sequence units) behind
	// the cursor a packet may fall and still be network reordering;
	// anything further back is an exporter restart and resets the cursor,
	// so a spoofed wild sequence number can never permanently wedge an
	// engine's stream.
	reorderTolerance = 1 << 20
	// maxEngineCursors caps each partition's sequence-cursor map. The
	// v9/IPFIX exporter identity is a 32-bit field in attacker-influenced
	// packets; beyond the cap, packets from new streams are accepted
	// without sequence accounting rather than growing daemon memory
	// without bound.
	maxEngineCursors = 4096
	// watermarkQuorum is how many consecutive batches must vote the
	// watermark stranded before the daemon re-anchors it.
	watermarkQuorum = 8
)

// action is what a batch asks of the collector, which owns the watermark.
type action int

const (
	actNone action = iota
	// actRaise: the batch put routable traffic in a bin above the
	// observed watermark; raise the watermark to it.
	actRaise
	// actStranded: a quorum of batches ran far below a watermark that
	// nothing was ever submitted behind; reset the watermark to the bin.
	actStranded
)

// binAcc accumulates one open timebin: the three per-OD vectors the
// detector scores. The slices are handed to the detector at close (which
// retains them), so a bin is never reused after submission.
type binAcc struct {
	bytes, packets, flows []float64
	records               uint64
}

// submittedBin pairs a detached accumulator with its bin index.
type submittedBin struct {
	bin int
	acc *binAcc
}

// partition owns one binning partition: the open bins of its slice of the
// OD space, the sequence cursors and dedupe rings of the export engines
// routed to it, its seal point and its stranded-watermark streak. Only the
// collector touches it. It books every outcome twice: in the collector's
// daemon-wide counters, and in its own atomic mirrors, which /stats reads
// lock-free.
type partition struct {
	cfg   *Config
	top   *topology.Topology
	res   *routing.Resolver
	ctr   *counters
	proto *[flowwire.NumFormats]protoCounters

	bins map[int]*binAcc
	// seq tracks one sequence cursor per (format, engine) export stream.
	// The key space is attacker-influenced (v9/IPFIX source IDs are 32
	// bits on the wire), so the map is capped at maxEngineCursors.
	seq           map[engineKey]*engineSeq
	closedThrough int
	behindStreak  int

	records, duplicates, lateRecords,
	wildRecords, unroutable atomic.Uint64
	binsOpen, sealed atomic.Int64
}

// newPartition builds partition id holding the state ss carries — a
// restored shard, or the empty state with SealedThrough -1 of a cold start
// — after checking every field of it as untrusted input: the snapshot
// passed its checksum, but shape and invariants are this layer's job.
func (c *collector) newPartition(id int, ss *checkpoint.ShardState) (*partition, error) {
	p := &partition{
		cfg:           c.cfg,
		top:           c.top,
		res:           c.res,
		ctr:           &c.ctr,
		proto:         &c.proto,
		bins:          make(map[int]*binAcc, len(ss.OpenBins)),
		seq:           make(map[engineKey]*engineSeq, len(ss.Engines)),
		closedThrough: ss.SealedThrough,
		behindStreak:  ss.BehindStreak,
	}
	if len(ss.OpenBins) > c.cfg.MaxOpenBins {
		return nil, fmt.Errorf("snapshot shard %d holds %d open bins, cap is %d", id, len(ss.OpenBins), c.cfg.MaxOpenBins)
	}
	n := c.top.NumODPairs()
	for _, ob := range ss.OpenBins {
		if ob.Bin <= ss.SealedThrough {
			return nil, fmt.Errorf("snapshot shard %d open bin %d at or behind its seal point %d", id, ob.Bin, ss.SealedThrough)
		}
		if len(ob.Bytes) != n || len(ob.Packets) != n || len(ob.Flows) != n {
			return nil, fmt.Errorf("snapshot open bin %d vectors sized (%d,%d,%d), want %d", ob.Bin, len(ob.Bytes), len(ob.Packets), len(ob.Flows), n)
		}
		for _, vec := range [][]float64{ob.Bytes, ob.Packets, ob.Flows} {
			for _, v := range vec {
				// Finite is not enough: 1e300 bytes in a bin overflows
				// the tracker's arithmetic one bin later.
				if !(v >= 0 && v <= engine.MaxRestored) {
					return nil, fmt.Errorf("snapshot open bin %d carries non-finite or negative traffic", ob.Bin)
				}
			}
		}
		if p.bins[ob.Bin] != nil {
			return nil, fmt.Errorf("snapshot shard %d lists open bin %d twice", id, ob.Bin)
		}
		p.bins[ob.Bin] = &binAcc{
			bytes:   append([]float64(nil), ob.Bytes...),
			packets: append([]float64(nil), ob.Packets...),
			flows:   append([]float64(nil), ob.Flows...),
			records: ob.Records,
		}
	}
	if len(ss.Engines) > maxEngineCursors {
		return nil, fmt.Errorf("snapshot shard %d holds %d engine cursors, cap is %d", id, len(ss.Engines), maxEngineCursors)
	}
	for _, es := range ss.Engines {
		f := flowwire.Format(es.Format)
		if f == flowwire.FormatUnknown || f >= flowwire.NumFormats || !c.reg.Enabled(f) {
			return nil, fmt.Errorf("snapshot engine cursor for unknown or disabled format %d", es.Format)
		}
		if c.shardOf(es.ID) != id {
			return nil, fmt.Errorf("snapshot shard %d holds cursor for engine %d, which hashes to shard %d", id, es.ID, c.shardOf(es.ID))
		}
		key := engineKey{f, es.ID}
		if p.seq[key] != nil {
			return nil, fmt.Errorf("snapshot lists engine %v/%d twice", f, es.ID)
		}
		if len(es.Recent) > dedupeWindow || es.Pos < 0 || es.Pos >= dedupeWindow {
			return nil, fmt.Errorf("snapshot engine %v/%d dedupe ring out of shape (%d entries, pos %d)", f, es.ID, len(es.Recent), es.Pos)
		}
		e := &engineSeq{started: true, next: es.Next, fill: len(es.Recent), pos: es.Pos}
		copy(e.recent[:], es.Recent)
		p.seq[key] = e
	}
	p.binsOpen.Store(int64(len(p.bins)))
	p.sealed.Store(int64(p.closedThrough))
	return p, nil
}

// ingest runs one decoded batch through the gates, in order: sequence
// dedupe, pre-epoch, late (at or below the seal point), wild (more than
// MaxAhead past obs, the observed watermark the caller supplies),
// accumulation, and the watermark vote. It books every outcome and returns
// what the collector must do about the watermark, and the batch's bin.
//
// Only routable traffic votes. Accepted traffic above obs votes to raise
// it. Late traffic votes the watermark stranded when it runs more than
// MaxAhead below obs yet above lastClosed, every bin ever submitted: a
// far-future first packet (or an exporter clock jump) raised the
// watermark and the seal followed it past bins nothing filled, whereas a
// straggler lies at or below a bin that really closed.
func (p *partition) ingest(b flowwire.Batch, recs []flowwire.Record, obs int) (action, int) {
	pc := &p.proto[b.Format]
	if !p.sequenceCheck(b) {
		p.ctr.duplicates.Add(1)
		p.duplicates.Add(1)
		pc.duplicates.Add(1)
		return actNone, 0
	}
	n := uint64(len(recs))
	if int64(b.UnixSecs) < int64(p.cfg.Epoch) {
		// Before bin 0 — and integer division would truncate it INTO bin 0.
		p.late(n)
		return actNone, 0
	}
	bin := int(int64(b.UnixSecs)-int64(p.cfg.Epoch)) / traffic.BinSeconds
	if bin <= p.closedThrough {
		p.late(n)
		if obs-bin <= p.cfg.MaxAhead || bin <= int(p.ctr.lastClosed.Load()) || !p.routable(b, recs) {
			return actNone, bin
		}
		p.behindStreak++
		if p.behindStreak < watermarkQuorum {
			return actNone, bin
		}
		p.behindStreak = 0
		return actStranded, bin
	}
	if obs >= 0 && bin > obs+p.cfg.MaxAhead {
		// The bin timestamp is untrusted input and it drives every bin
		// close: refusing wild jumps keeps one spoofed datagram from
		// force-closing partial bins and parking the watermark out of
		// legitimate traffic's reach.
		p.wild(n)
		return actNone, bin
	}
	accepted, unroutable, wild := p.accumulate(bin, b, recs)
	if unroutable > 0 {
		p.ctr.unroutable.Add(unroutable)
		p.unroutable.Add(unroutable)
	}
	if wild > 0 {
		p.wild(wild)
	}
	p.binsOpen.Store(int64(len(p.bins)))
	if accepted == 0 {
		return actNone, bin
	}
	p.ctr.records.Add(accepted)
	p.records.Add(accepted)
	pc.records.Add(accepted)
	p.behindStreak = 0
	if bin > obs {
		return actRaise, bin
	}
	return actNone, bin
}

func (p *partition) late(n uint64) {
	p.ctr.lateRecords.Add(n)
	p.lateRecords.Add(n)
}

func (p *partition) wild(n uint64) {
	p.ctr.wildRecords.Add(n)
	p.wildRecords.Add(n)
}

// seal moves the seal point up to through and detaches every open bin at
// or below it, returned in ascending bin order (nil when none).
func (p *partition) seal(through int) []submittedBin {
	var out []submittedBin
	for bin, acc := range p.bins {
		if bin <= through {
			out = append(out, submittedBin{bin, acc})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].bin < out[j].bin })
	for _, sb := range out {
		delete(p.bins, sb.bin)
	}
	if through > p.closedThrough {
		p.closedThrough = through
	}
	p.binsOpen.Store(int64(len(p.bins)))
	p.sealed.Store(int64(p.closedThrough))
	return out
}

// discard is the partition's half of a watermark reset: every open bin
// above keepThrough is dropped as wild (their contents were the lie that
// stranded the watermark), the streak clears, and the seal point rewinds
// to lastClosed so the stream the watermark is re-anchored at can fill the
// bins the stranded seal ran past. The rewind is sound because every bin
// sealed so far has been submitted, and nothing above lastClosed was.
func (p *partition) discard(keepThrough int) {
	for bin, acc := range p.bins {
		if bin > keepThrough {
			p.wild(acc.records)
			delete(p.bins, bin)
		}
	}
	p.closedThrough = int(p.ctr.lastClosed.Load())
	p.behindStreak = 0
	p.binsOpen.Store(int64(len(p.bins)))
	p.sealed.Store(int64(p.closedThrough))
}

// state deep-copies the partition into its checkpoint form: open bins
// sorted by bin, started engine cursors in (format, engine) order.
func (p *partition) state() checkpoint.ShardState {
	sh := checkpoint.ShardState{SealedThrough: p.closedThrough, BehindStreak: p.behindStreak}
	sh.OpenBins = make([]checkpoint.OpenBin, 0, len(p.bins))
	for bin, acc := range p.bins {
		sh.OpenBins = append(sh.OpenBins, checkpoint.OpenBin{
			Bin:     bin,
			Records: acc.records,
			Bytes:   append([]float64(nil), acc.bytes...),
			Packets: append([]float64(nil), acc.packets...),
			Flows:   append([]float64(nil), acc.flows...),
		})
	}
	sort.Slice(sh.OpenBins, func(i, j int) bool { return sh.OpenBins[i].Bin < sh.OpenBins[j].Bin })
	keys := make([]engineKey, 0, len(p.seq))
	for k, e := range p.seq {
		if e.started {
			keys = append(keys, k)
		}
	}
	// The map iterates in random order; the snapshot must not.
	slices.SortFunc(keys, func(a, b engineKey) int {
		return cmp.Or(cmp.Compare(a.format, b.format), cmp.Compare(a.engine, b.engine))
	})
	for _, k := range keys {
		e := p.seq[k]
		// recent[:fill] is exactly the valid ring entries: the ring fills
		// from slot 0 and pos only wraps once fill reaches the window.
		sh.Engines = append(sh.Engines, checkpoint.EngineState{
			Format: uint8(k.format),
			ID:     k.engine,
			Next:   e.next,
			Recent: append([]uint32(nil), e.recent[:e.fill]...),
			Pos:    e.pos,
		})
	}
	return sh
}

// engineKey identifies one export stream. Sequence spaces are independent
// per wire format — a v5 engine 3 and an IPFIX observation domain 3 are
// different streams — so the format is part of the identity.
type engineKey struct {
	format flowwire.Format
	engine uint32
}

// sequenceCheck updates the batch's per-stream sequence state and reports
// whether the packet should be ingested, honoring the batch's own sequence
// semantics: the cursor advances by SeqAdvance units of SeqModel's unit
// (flows, packets, records or samples), and a gap ahead of the cursor is
// that many units lost in transit — credited to the stream's format in
// Stats.Protocols, and folded into the global LostRecords only when the
// unit is a record (v5, IPFIX). A batch behind the cursor is, in order of
// precedence: a replayed duplicate if its sequence number was recently
// seen (dropped — counting it twice would corrupt the bin); plain network
// reordering if it is within reorderTolerance (accepted, and the loss the
// earlier gap charged for it is refunded); otherwise an exporter restart,
// which resets the cursor. Batches without sequence information (SeqNone)
// pass through untracked.
func (p *partition) sequenceCheck(b flowwire.Batch) bool {
	if b.SeqModel == flowwire.SeqNone {
		return true
	}
	key := engineKey{b.Format, b.Engine}
	e := p.seq[key]
	if e == nil {
		if len(p.seq) >= maxEngineCursors {
			return true // accept, untracked: see maxEngineCursors
		}
		e = &engineSeq{}
		p.seq[key] = e
	}
	pc := &p.proto[b.Format]
	countsRecords := b.SeqModel.CountsRecords()
	if !e.started {
		e.started = true
		e.next = b.Seq + b.SeqAdvance
		e.remember(b.Seq)
		return true
	}
	delta := int32(b.Seq - e.next) // uint32 arithmetic handles wraparound
	switch {
	case delta >= 0:
		if delta > reorderTolerance {
			// A forward jump too wild to be transit loss is the same event
			// as the backward one: an exporter restart (or a spoofed
			// sequence) — resynchronize rather than charging a phantom
			// multi-billion-unit gap to the loss counters.
			e.clear()
		} else {
			pc.lostUnits.Add(uint64(delta))
			if countsRecords {
				p.ctr.lostRecords.Add(uint64(delta))
			}
		}
		e.next = b.Seq + b.SeqAdvance
	case e.seen(b.Seq):
		return false
	case delta >= -reorderTolerance:
		// Reordered delivery: the gap this batch left was already counted
		// lost when its successor arrived first, so refund it. The cursor
		// stays where the stream's front is. The refund saturates — another
		// partition's stream sharing the format counter may have refunded
		// first.
		satSub(&pc.lostUnits, uint64(b.SeqAdvance))
		if countsRecords {
			satSub(&p.ctr.lostRecords, uint64(b.SeqAdvance))
		}
	default:
		// Exporter restart (or a spoofed wild sequence): resynchronize.
		e.next = b.Seq + b.SeqAdvance
		e.clear()
	}
	e.remember(b.Seq)
	return true
}

// accumulate folds one packet's records into bin, resolving each record to
// an OD pair: origin from the engine ID, egress by longest-prefix match on
// the anonymized destination — the same procedure, and therefore the same
// (OD, bin) cell, as the offline generator. It returns how many records
// were folded in and how many were unroutable or wild (cap overflow).
func (p *partition) accumulate(bin int, b flowwire.Batch, recs []flowwire.Record) (accepted, unroutable, wild uint64) {
	origin := topology.PoP(b.Engine)
	originOK := p.top.ContainsPoP(origin)
	acc := p.bins[bin]
	for _, rec := range recs {
		if !originOK {
			unroutable++
			continue
		}
		egress, ok := p.res.ResolveDst(rec.Dst)
		if !ok {
			unroutable++
			continue
		}
		if acc == nil {
			// Open the bin lazily, on the first routable record, and under
			// a cap: unroutable or wild garbage must not grow the open set.
			if len(p.bins) >= p.cfg.MaxOpenBins {
				wild++
				continue
			}
			n := p.top.NumODPairs()
			acc = &binAcc{
				bytes:   make([]float64, n),
				packets: make([]float64, n),
				flows:   make([]float64, n),
			}
			p.bins[bin] = acc
		}
		col := p.top.Index(topology.ODPair{Origin: origin, Dest: egress})
		acc.bytes[col] += float64(rec.Bytes)
		acc.packets[col] += float64(rec.Packets)
		// Flow-export records each carry one flow (Flows == 1), keeping
		// bit-for-bit parity with the v5-era `flows[col]++`; sFlow samples
		// estimate flow counts, and the estimate rides the same field.
		acc.flows[col] += float64(rec.Flows)
		acc.records++
		accepted++
	}
	return accepted, unroutable, wild
}

// routable reports whether any of the batch's records resolves to an OD
// pair — accumulate's test, without accumulating.
func (p *partition) routable(b flowwire.Batch, recs []flowwire.Record) bool {
	if !p.top.ContainsPoP(topology.PoP(b.Engine)) {
		return false
	}
	for _, rec := range recs {
		if _, ok := p.res.ResolveDst(rec.Dst); ok {
			return true
		}
	}
	return false
}

// engineSeq is one export stream's sequence cursor plus a small ring of
// recently seen packet sequence numbers for duplicate detection.
type engineSeq struct {
	next    uint32
	started bool
	recent  [dedupeWindow]uint32
	fill    int // entries of recent in use
	pos     int // next ring slot to overwrite
}

func (e *engineSeq) remember(seq uint32) {
	e.recent[e.pos] = seq
	e.pos = (e.pos + 1) % dedupeWindow
	if e.fill < dedupeWindow {
		e.fill++
	}
}

func (e *engineSeq) seen(seq uint32) bool {
	for i := 0; i < e.fill; i++ {
		if e.recent[i] == seq {
			return true
		}
	}
	return false
}

func (e *engineSeq) clear() { e.fill, e.pos = 0, 0 }
