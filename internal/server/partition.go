// The gates every decoded batch passes on its way into a bin (see the
// package comment), as methods of the collector (collector.go), which owns
// the watermark and bin close and which a batch's gates only tell what the
// batch means for the watermark. DESIGN.md E24 states which gate reads
// which cursor and why.
package server

import (
	"netwide/internal/flowwire"
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
	// maxEngineCursors caps the daemon's sequence-cursor map. The
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

// gate runs one decoded batch through the gates, in order: sequence
// dedupe, pre-epoch, late (at or below the seal point), wild (more than
// MaxAhead past the watermark), accumulation, the watermark vote and the
// vouch. It books every outcome and returns what the collector must do
// about the watermark, and the batch's bin.
//
// A batch that arrived exactly at its stream's cursor with no loss
// outstanding vouches for its bin once it has passed the late and wild
// gates: the stream, in order and complete so far, has moved on to it.
// Loss stops being outstanding once the grace rule has sealed the bin it
// was charged at: the missing datagrams lie at or below it, so a refund
// could only land in a sealed bin. A stream vouches, and counts toward the
// early seal, only once it has delivered a routable record: a stream no
// PoP owns never fills a bin, so it never holds one open.
//
// Only routable traffic votes. Accepted traffic above the watermark votes
// to raise it. Late traffic votes the watermark stranded when it runs more
// than MaxAhead below it yet above lastClosed, every bin ever submitted: a
// far-future first packet (or an exporter clock jump) raised the
// watermark and the seal followed it past bins nothing filled, whereas a
// straggler lies at or below a bin that really closed. Every engine's
// batches count toward the one streak.
func (c *collector) gate(b flowwire.Batch, recs []flowwire.Record) (action, int) {
	pc := &c.proto[b.Format]
	bin := int(int64(b.UnixSecs)-int64(c.cfg.Epoch)) / traffic.BinSeconds
	ok, e, inOrder := c.sequenceCheck(b, bin)
	if !ok {
		c.ctr.duplicates.Add(1)
		pc.duplicates.Add(1)
		return actNone, 0
	}
	n := uint64(len(recs))
	if int64(b.UnixSecs) < int64(c.cfg.Epoch) {
		// Before bin 0 — and integer division would truncate it INTO bin 0.
		c.ctr.lateRecords.Add(n)
		return actNone, 0
	}
	obs := int(c.ctr.watermark.Load())
	if bin <= c.sealedThrough {
		c.ctr.lateRecords.Add(n)
		if e != nil && !e.routed && c.routable(b, recs) {
			c.route(e) // a laggard, not a stream no PoP owns
		}
		if obs-bin <= c.cfg.MaxAhead || bin <= int(c.ctr.lastClosed.Load()) || !c.routable(b, recs) {
			return actNone, bin
		}
		c.behindStreak++
		if c.behindStreak < watermarkQuorum {
			return actNone, bin
		}
		c.behindStreak = 0
		return actStranded, bin
	}
	if obs >= 0 && bin > obs+c.cfg.MaxAhead {
		// The bin timestamp is untrusted input and it drives every bin
		// close: refusing wild jumps keeps one spoofed datagram from
		// force-closing partial bins and parking the watermark out of
		// legitimate traffic's reach.
		c.ctr.wildRecords.Add(n)
		return actNone, bin
	}
	accepted, unroutable, wild := c.accumulate(bin, b, recs)
	if unroutable > 0 {
		c.ctr.unroutable.Add(unroutable)
	}
	if wild > 0 {
		c.ctr.wildRecords.Add(wild)
	}
	c.ctr.binsOpen.Store(int64(len(c.bins)))
	act, wm := actNone, obs
	if accepted > 0 {
		c.ctr.records.Add(accepted)
		pc.records.Add(accepted)
		c.behindStreak = 0
		if bin > obs {
			act, wm = actRaise, bin
		}
	}
	if e != nil && !e.routed && accepted > 0 {
		c.route(e)
	}
	if inOrder && e.routed {
		// Capped at the watermark the batch leaves, so the early seal
		// never runs past watermark − 1: at Grace 1 it seals nothing the
		// grace rule does not.
		c.vouch(e, min(bin, wm))
	}
	return act, bin
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
// stream's earlier gap charged for it is refunded); otherwise an exporter restart,
// which resets the cursor. Batches without sequence information (SeqNone)
// pass through untracked.
//
// It returns the batch's stream (nil when untracked), and reports it in
// order when the batch sat exactly at its started cursor with no loss
// outstanding: everything the stream sent since its cursor (re)started has
// arrived, or what has not lies in bins the grace rule has sealed (loss
// found by a batch of bin lies at or below bin). A stream's first batch
// since then never is in order — nothing yet shows where its earlier
// batches are — and a restart forgets what the stream vouched for.
func (c *collector) sequenceCheck(b flowwire.Batch, bin int) (ok bool, e *engineSeq, inOrder bool) {
	if b.SeqModel == flowwire.SeqNone {
		c.untracked = true
		return true, nil, false
	}
	key := engineKey{b.Format, b.Engine}
	e = c.seq[key]
	if e == nil {
		if len(c.seq) >= maxEngineCursors {
			c.untracked = true
			return true, nil, false // accept, untracked: see maxEngineCursors
		}
		e = &engineSeq{}
		c.seq[key] = e
	}
	pc := &c.proto[b.Format]
	countsRecords := b.SeqModel.CountsRecords()
	if !e.started {
		e.started = true
		e.next = b.Seq + b.SeqAdvance
		e.remember(b.Seq)
		return true, e, false
	}
	delta := int32(b.Seq - e.next) // uint32 arithmetic handles wraparound
	switch {
	case delta == 0 && (e.charged == 0 || e.lossBin <= c.sealedThrough):
		inOrder = true
		e.next = b.Seq + b.SeqAdvance
	case delta >= 0:
		if delta > reorderTolerance {
			// A forward jump too wild to be transit loss is the same event
			// as the backward one: an exporter restart (or a spoofed
			// sequence) — resynchronize rather than charging a phantom
			// multi-billion-unit gap to the loss counters.
			c.forget(e)
			e.clear()
		} else if delta > 0 {
			if e.charged == 0 || bin > e.lossBin {
				e.lossBin = bin
			}
			e.charged += uint64(delta)
			pc.lostUnits.Add(uint64(delta))
			if countsRecords {
				c.ctr.lostRecords.Add(uint64(delta))
			}
		}
		e.next = b.Seq + b.SeqAdvance
	case e.seen(b.Seq):
		return false, e, false
	case delta >= -reorderTolerance:
		// Reordered delivery: the gap this batch fell into was charged lost
		// when its successor arrived first, so refund it — but no more than
		// this stream was charged since its cursor last (re)started. A
		// stream's own first datagram arriving second left no gap, and
		// another stream's loss is not this one's to refund. The cursor
		// stays where the stream's front is. The refund saturates: a
		// restored charge is untrusted snapshot input.
		refund := min(uint64(b.SeqAdvance), e.charged)
		e.charged -= refund
		satSub(&pc.lostUnits, refund)
		if countsRecords {
			satSub(&c.ctr.lostRecords, refund)
		}
	default:
		// Exporter restart (or a spoofed wild sequence): resynchronize.
		e.next = b.Seq + b.SeqAdvance
		c.forget(e)
		e.clear()
	}
	e.remember(b.Seq)
	return true, e, inOrder
}

// accumulate folds one packet's records into bin, resolving each record to
// an OD pair: origin from the engine ID, egress by longest-prefix match on
// the anonymized destination — the same procedure, and therefore the same
// (OD, bin) cell, as the offline generator. It returns how many records
// were folded in and how many were unroutable or wild (cap overflow).
func (c *collector) accumulate(bin int, b flowwire.Batch, recs []flowwire.Record) (accepted, unroutable, wild uint64) {
	origin := topology.PoP(b.Engine)
	originOK := c.top.ContainsPoP(origin)
	acc := c.bins[bin]
	for _, rec := range recs {
		if !originOK {
			unroutable++
			continue
		}
		egress, ok := c.res.ResolveDst(rec.Dst)
		if !ok {
			unroutable++
			continue
		}
		if acc == nil {
			// Open the bin lazily, on the first routable record, and under
			// a cap: unroutable or wild garbage must not grow the open set.
			if len(c.bins) >= c.cfg.MaxOpenBins {
				wild++
				continue
			}
			n := c.top.NumODPairs()
			acc = &binAcc{
				bytes:   make([]float64, n),
				packets: make([]float64, n),
				flows:   make([]float64, n),
			}
			c.bins[bin] = acc
		}
		col := c.top.Index(topology.ODPair{Origin: origin, Dest: egress})
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
func (c *collector) routable(b flowwire.Batch, recs []flowwire.Record) bool {
	if !c.top.ContainsPoP(topology.PoP(b.Engine)) {
		return false
	}
	for _, rec := range recs {
		if _, ok := c.res.ResolveDst(rec.Dst); ok {
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
	// charged is the loss, in sequence units, booked against this stream
	// since its cursor last (re)started and not yet refunded. lossBin is
	// the highest bin of a batch that found a gap since charged was last
	// zero: by the stream's own order the missing datagrams lie at or below
	// it. Derived state: a restored cursor starts it at the restored
	// watermark.
	charged uint64
	lossBin int
	// routed reports the stream has delivered a routable record since the
	// collector was built; only then does it count toward the early seal.
	routed bool
	recent [dedupeWindow]uint32
	fill   int // entries of recent in use
	pos    int // next ring slot to overwrite
	// frontier is the highest bin of a batch the stream sent in order
	// (sequenceCheck), valid while vouchGen is the collector's: the
	// stream will send nothing stamped below it.
	frontier int
	vouchGen uint64
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

func (e *engineSeq) clear() { e.fill, e.pos, e.charged = 0, 0, 0 }
