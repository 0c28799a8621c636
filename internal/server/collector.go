// The collector: the whole ingest state machine as one value — the decoder
// registry, the open bins, the sequence cursors, the watermark and the
// counters. It holds no mutex, goroutine, socket, clock or detector; the
// Server serialises every caller onto it under ingestMu and submits the
// bins it returns.
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
)

// counters is the daemon's hot counter block, its one ledger. Every write
// happens under ingestMu — by the collector, and binsClosed by the Server's
// submit; the fields are atomic only because the /stats handler reads them
// without taking ingestMu, which a bin close holds across a detector
// submit.
type counters struct {
	packets, badPackets, duplicates, records,
	lostRecords, lateRecords, unroutable,
	wildRecords, watermarkResets atomic.Uint64
	binsClosed, binsOpen, watermark, lastClosed atomic.Int64
}

// protoCounters is the internal mutable form of ProtoStats, held in a flat
// per-format array; atomic for /stats, like counters.
type protoCounters struct {
	packets, badPackets, duplicates, records, lostUnits atomic.Uint64
}

// state snapshots the per-format counters, reporting whether any is
// nonzero (zero-valued formats are omitted from /stats and checkpoints).
func (p *protoCounters) state(f flowwire.Format) (checkpoint.ProtoState, bool) {
	ps := checkpoint.ProtoState{
		Format:     uint8(f),
		Packets:    p.packets.Load(),
		BadPackets: p.badPackets.Load(),
		Duplicates: p.duplicates.Load(),
		Records:    p.records.Load(),
		LostUnits:  p.lostUnits.Load(),
	}
	seen := ps.Packets != 0 || ps.BadPackets != 0 || ps.Duplicates != 0 || ps.Records != 0 || ps.LostUnits != 0
	return ps, seen
}

// satSub subtracts up to n from c, saturating at zero — the sequence
// refund path, where a restored stream's charge is untrusted snapshot
// input and may exceed the restored counter it is refunded from.
func satSub(c *atomic.Uint64, n uint64) {
	cur := c.Load()
	c.Store(cur - min(n, cur))
}

// collector is the ingest state machine. One datagram goes decode → the
// gates (partition.go) → the watermark vote → a reset when the vote says
// stranded → the seal of every bin the watermark lets close. Every socket
// shares its one registry (and so one v9/IPFIX template cache) and its
// record buffer; every export engine bins into the one set of open bins.
type collector struct {
	cfg  *Config
	top  *topology.Topology
	res  *routing.Resolver
	reg  *flowwire.Registry
	recs []flowwire.Record

	// bins are the open timebins, at most MaxOpenBins of them.
	bins map[int]*binAcc
	// seq tracks one sequence cursor per (format, engine) export stream.
	// The key space is attacker-influenced (v9/IPFIX source IDs are 32
	// bits on the wire), so the map is capped at maxEngineCursors.
	seq map[engineKey]*engineSeq
	// sealedThrough is the seal point: no bin at or below it reopens. It
	// runs ahead of lastClosed over bins nothing filled. behindStreak
	// counts the consecutive batches voting the watermark stranded.
	sealedThrough, behindStreak int

	ctr counters
	// proto is the per-format counter array behind Stats.Protocols (index
	// FormatUnknown stays zero; undetectable garbage only reaches the
	// global BadPackets).
	proto [flowwire.NumFormats]protoCounters
}

// newCollector builds the collector holding sv, the ingest share of a
// snapshot, after checking every field of it as untrusted input: the
// snapshot passed its checksum, but shape and invariants are this layer's
// job. A nil sv builds the empty state of a cold start. A collector that
// fails to build is simply dropped, so a cold start never sees template
// or cursor state from a rejected snapshot.
func newCollector(cfg *Config, top *topology.Topology, res *routing.Resolver, sv *checkpoint.ServerState) (*collector, error) {
	reg, err := flowwire.NewRegistry(cfg.Formats...)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if sv == nil {
		sv = &checkpoint.ServerState{Watermark: -1, LastClosed: -1, SealedThrough: -1}
	}
	if sv.SealedThrough < sv.LastClosed {
		return nil, fmt.Errorf("snapshot sealed through %d, behind last closed %d", sv.SealedThrough, sv.LastClosed)
	}
	c := &collector{
		cfg: cfg, top: top, res: res, reg: reg,
		bins:          make(map[int]*binAcc, len(sv.OpenBins)),
		seq:           make(map[engineKey]*engineSeq, len(sv.Engines)),
		sealedThrough: sv.SealedThrough,
		behindStreak:  sv.BehindStreak,
	}
	if len(sv.OpenBins) > cfg.MaxOpenBins {
		return nil, fmt.Errorf("snapshot holds %d open bins, cap is %d", len(sv.OpenBins), cfg.MaxOpenBins)
	}
	n := top.NumODPairs()
	for _, ob := range sv.OpenBins {
		if ob.Bin <= sv.SealedThrough {
			return nil, fmt.Errorf("snapshot open bin %d at or behind its seal point %d", ob.Bin, sv.SealedThrough)
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
		if c.bins[ob.Bin] != nil {
			return nil, fmt.Errorf("snapshot lists open bin %d twice", ob.Bin)
		}
		c.bins[ob.Bin] = &binAcc{
			bytes:   append([]float64(nil), ob.Bytes...),
			packets: append([]float64(nil), ob.Packets...),
			flows:   append([]float64(nil), ob.Flows...),
			records: ob.Records,
		}
	}
	if len(sv.Engines) > maxEngineCursors {
		return nil, fmt.Errorf("snapshot holds %d engine cursors, cap is %d", len(sv.Engines), maxEngineCursors)
	}
	for _, es := range sv.Engines {
		f := flowwire.Format(es.Format)
		if f == flowwire.FormatUnknown || f >= flowwire.NumFormats || !reg.Enabled(f) {
			return nil, fmt.Errorf("snapshot engine cursor for unknown or disabled format %d", es.Format)
		}
		key := engineKey{f, es.ID}
		if c.seq[key] != nil {
			return nil, fmt.Errorf("snapshot lists engine %v/%d twice", f, es.ID)
		}
		if len(es.Recent) > dedupeWindow || es.Pos < 0 || es.Pos >= dedupeWindow {
			return nil, fmt.Errorf("snapshot engine %v/%d dedupe ring out of shape (%d entries, pos %d)", f, es.ID, len(es.Recent), es.Pos)
		}
		e := &engineSeq{started: true, next: es.Next, charged: es.Charged, fill: len(es.Recent), pos: es.Pos}
		copy(e.recent[:], es.Recent)
		c.seq[key] = e
	}
	protoSeen := map[uint8]bool{}
	for _, ps := range sv.Protocols {
		f := flowwire.Format(ps.Format)
		if f == flowwire.FormatUnknown || f >= flowwire.NumFormats {
			return nil, fmt.Errorf("snapshot protocol counters for unknown format %d", ps.Format)
		}
		if protoSeen[ps.Format] {
			return nil, fmt.Errorf("snapshot lists protocol %v twice", f)
		}
		protoSeen[ps.Format] = true
		pc := &c.proto[ps.Format]
		pc.packets.Store(ps.Packets)
		pc.badPackets.Store(ps.BadPackets)
		pc.duplicates.Store(ps.Duplicates)
		pc.records.Store(ps.Records)
		pc.lostUnits.Store(ps.LostUnits)
	}
	tmpl := map[flowwire.Format][]flowwire.TemplateSnapshot{}
	for _, ts := range sv.Templates {
		f := flowwire.Format(ts.Format)
		if f != flowwire.FormatNetFlowV9 && f != flowwire.FormatIPFIX {
			return nil, fmt.Errorf("snapshot template for non-template format %d", ts.Format)
		}
		fields := make([]flowwire.FieldSpec, len(ts.Fields))
		for i, fd := range ts.Fields {
			fields[i] = flowwire.FieldSpec{ID: fd.ID, Enterprise: fd.Enterprise, Length: fd.Length}
		}
		tmpl[f] = append(tmpl[f], flowwire.TemplateSnapshot{
			Source: ts.Source, ID: ts.ID, Scope: ts.Scope, Fields: fields,
		})
	}
	// The registry revalidates every definition exactly like a hostile
	// wire template.
	for f, snaps := range tmpl {
		if err := reg.RestoreTemplates(f, snaps); err != nil {
			return nil, fmt.Errorf("snapshot template restore (%v): %w", f, err)
		}
	}
	c.ctr.packets.Store(sv.Packets)
	c.ctr.badPackets.Store(sv.BadPackets)
	c.ctr.duplicates.Store(sv.Duplicates)
	c.ctr.records.Store(sv.Records)
	c.ctr.lostRecords.Store(sv.LostRecords)
	c.ctr.lateRecords.Store(sv.LateRecords)
	c.ctr.unroutable.Store(sv.Unroutable)
	c.ctr.wildRecords.Store(sv.WildRecords)
	c.ctr.watermarkResets.Store(sv.WatermarkResets)
	c.ctr.binsClosed.Store(int64(sv.BinsClosed))
	c.ctr.binsOpen.Store(int64(len(c.bins)))
	c.ctr.watermark.Store(int64(sv.Watermark))
	c.ctr.lastClosed.Store(int64(sv.LastClosed))
	return c, nil
}

// ingest runs one datagram through the state machine and returns the bins
// it let close, in ascending order, for the caller to submit (none when
// the datagram did not decode). A raise lifts the watermark to the batch's
// bin; a stranded vote re-anchors it there first (reset). Either way every
// bin through watermark − Grace is sealed.
func (c *collector) ingest(pkt []byte) []submittedBin {
	b, recs, err := c.reg.Decode(pkt, c.recs[:0])
	c.recs = recs
	c.ctr.packets.Add(1)
	// Decode attributes even failed packets to a format when the version
	// word detected one; garbage that detects as nothing only reaches the
	// global counters.
	var pc *protoCounters
	if b.Format != flowwire.FormatUnknown && b.Format < flowwire.NumFormats {
		pc = &c.proto[b.Format]
		pc.packets.Add(1)
	}
	if err != nil {
		c.ctr.badPackets.Add(1)
		if pc != nil {
			pc.badPackets.Add(1)
		}
		return nil
	}
	switch act, bin := c.gate(b, recs); act {
	case actNone:
		return nil
	case actStranded:
		c.reset(bin)
	case actRaise:
		c.ctr.watermark.Store(int64(bin))
	}
	return c.closeThrough(int(c.ctr.watermark.Load()) - c.cfg.Grace)
}

// reset re-anchors a stranded watermark at bin. Every open bin beyond
// bin + MaxAhead is dropped as wild (their contents were the lie that
// stranded the watermark), the streak clears, and the seal point rewinds to
// lastClosed so the stream the watermark is re-anchored at can fill the
// bins the stranded seal ran past. The rewind is sound because every bin
// sealed so far was returned to the caller, which submitted it before its
// next call, and nothing above lastClosed was.
func (c *collector) reset(bin int) {
	for b, acc := range c.bins {
		if b > bin+c.cfg.MaxAhead {
			c.ctr.wildRecords.Add(acc.records)
			delete(c.bins, b)
		}
	}
	c.sealedThrough = int(c.ctr.lastClosed.Load())
	c.behindStreak = 0
	c.ctr.binsOpen.Store(int64(len(c.bins)))
	c.ctr.watermark.Store(int64(bin))
	c.ctr.watermarkResets.Add(1)
}

// flush seals every bin through the watermark — the drain's tail.
func (c *collector) flush() []submittedBin {
	return c.closeThrough(int(c.ctr.watermark.Load()))
}

// closeThrough moves the seal point up to through and detaches every open
// bin at or below it, in ascending order (nil when none); lastClosed moves
// to the highest bin returned. Bounds only rise between resets, and the
// late gate keeps a sealed bin from reopening: every bin is returned once,
// complete, in ascending order across calls.
func (c *collector) closeThrough(through int) []submittedBin {
	var out []submittedBin
	for bin, acc := range c.bins {
		if bin <= through {
			out = append(out, submittedBin{bin, acc})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].bin < out[j].bin })
	for _, sb := range out {
		delete(c.bins, sb.bin)
	}
	c.sealedThrough = max(c.sealedThrough, through)
	c.ctr.binsOpen.Store(int64(len(c.bins)))
	if len(out) > 0 {
		c.ctr.lastClosed.Store(int64(out[len(out)-1].bin))
	}
	return out
}

// state is the collector's share of a capture: counters, per-protocol
// breakdown, open bins sorted by bin, started engine cursors in (format,
// engine) order, and the template cache — everything of
// checkpoint.ServerState but AlarmBins, which the verdict consumer owns.
func (c *collector) state() checkpoint.ServerState {
	sv := checkpoint.ServerState{
		Packets:         c.ctr.packets.Load(),
		BadPackets:      c.ctr.badPackets.Load(),
		Duplicates:      c.ctr.duplicates.Load(),
		Records:         c.ctr.records.Load(),
		LostRecords:     c.ctr.lostRecords.Load(),
		LateRecords:     c.ctr.lateRecords.Load(),
		Unroutable:      c.ctr.unroutable.Load(),
		WildRecords:     c.ctr.wildRecords.Load(),
		WatermarkResets: c.ctr.watermarkResets.Load(),
		BinsClosed:      int(c.ctr.binsClosed.Load()),
		Watermark:       int(c.ctr.watermark.Load()),
		LastClosed:      int(c.ctr.lastClosed.Load()),
		OpenBins:        make([]checkpoint.OpenBin, 0, len(c.bins)),
		SealedThrough:   c.sealedThrough,
		BehindStreak:    c.behindStreak,
	}
	for bin, acc := range c.bins {
		sv.OpenBins = append(sv.OpenBins, checkpoint.OpenBin{
			Bin:     bin,
			Records: acc.records,
			Bytes:   append([]float64(nil), acc.bytes...),
			Packets: append([]float64(nil), acc.packets...),
			Flows:   append([]float64(nil), acc.flows...),
		})
	}
	sort.Slice(sv.OpenBins, func(i, j int) bool { return sv.OpenBins[i].Bin < sv.OpenBins[j].Bin })
	keys := make([]engineKey, 0, len(c.seq))
	for k, e := range c.seq {
		if e.started {
			keys = append(keys, k)
		}
	}
	// The map iterates in random order; the snapshot must not.
	slices.SortFunc(keys, func(a, b engineKey) int {
		return cmp.Or(cmp.Compare(a.format, b.format), cmp.Compare(a.engine, b.engine))
	})
	for _, k := range keys {
		e := c.seq[k]
		// recent[:fill] is exactly the valid ring entries: the ring fills
		// from slot 0 and pos only wraps once fill reaches the window.
		sv.Engines = append(sv.Engines, checkpoint.EngineState{
			Format:  uint8(k.format),
			ID:      k.engine,
			Next:    e.next,
			Recent:  append([]uint32(nil), e.recent[:e.fill]...),
			Pos:     e.pos,
			Charged: e.charged,
		})
	}
	for f := flowwire.Format(1); f < flowwire.NumFormats; f++ {
		if ps, seen := c.proto[f].state(f); seen {
			sv.Protocols = append(sv.Protocols, ps)
		}
	}
	// Template caches are decode state a mid-stream restart cannot relearn
	// until the exporters resend, so they checkpoint too.
	for _, f := range []flowwire.Format{flowwire.FormatNetFlowV9, flowwire.FormatIPFIX} {
		for _, ts := range c.reg.TemplateSnapshots(f) {
			fields := make([]checkpoint.TemplateField, len(ts.Fields))
			for i, fd := range ts.Fields {
				fields[i] = checkpoint.TemplateField{ID: fd.ID, Enterprise: fd.Enterprise, Length: fd.Length}
			}
			sv.Templates = append(sv.Templates, checkpoint.TemplateState{
				Format: uint8(f),
				Source: ts.Source,
				ID:     ts.ID,
				Scope:  ts.Scope,
				Fields: fields,
			})
		}
	}
	return sv
}
