// The collector: the whole ingest state machine as one value — the decoder
// registry, the partitions, the watermark and the counters. It holds no
// mutex, goroutine, socket, clock or detector; the Server serialises every
// caller onto it under ingestMu and submits the bins it returns.
package server

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"netwide/internal/checkpoint"
	"netwide/internal/flowwire"
	"netwide/internal/routing"
	"netwide/internal/topology"
)

// counters is the daemon's hot counter block. Every write happens under
// ingestMu — by the collector, and binsClosed by the Server's submit; the
// fields are atomic only because the /stats handler reads them without
// taking ingestMu, which a bin close holds across a detector submit.
type counters struct {
	packets, badPackets, duplicates, records,
	lostRecords, lateRecords, unroutable,
	wildRecords, watermarkResets atomic.Uint64
	binsClosed, watermark, lastClosed atomic.Int64
}

// protoCounters is the internal mutable form of ProtoStats, held in a flat
// per-format array (a format is not shard-local); atomic for /stats, like
// counters.
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
// refund path, where another stream sharing the per-format counter may
// have refunded first.
func satSub(c *atomic.Uint64, n uint64) {
	cur := c.Load()
	c.Store(cur - min(n, cur))
}

// collector is the ingest state machine. One datagram goes decode → the
// gates of its engine's partition → the watermark vote → a reset when the
// vote says stranded → seal + merge of every bin the watermark lets close.
// Every socket shares its one registry (and so one v9/IPFIX template
// cache) and its record buffer.
type collector struct {
	cfg  *Config
	top  *topology.Topology
	res  *routing.Resolver
	reg  *flowwire.Registry
	recs []flowwire.Record

	// parts (Shards of them) split the OD columns, cursors and open bins
	// by export engine; see shardOf.
	parts []*partition

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
		sv = &checkpoint.ServerState{Watermark: -1, LastClosed: -1, Shards: make([]checkpoint.ShardState, cfg.Shards)}
		for i := range sv.Shards {
			sv.Shards[i].SealedThrough = -1
		}
	}
	if len(sv.Shards) != cfg.Shards {
		return nil, fmt.Errorf("snapshot holds %d shard states, daemon runs %d shards", len(sv.Shards), cfg.Shards)
	}
	c := &collector{cfg: cfg, top: top, res: res, reg: reg, parts: make([]*partition, cfg.Shards)}
	for i := range sv.Shards {
		ss := &sv.Shards[i]
		if ss.SealedThrough < sv.LastClosed {
			return nil, fmt.Errorf("snapshot shard %d sealed through %d, behind last closed %d", i, ss.SealedThrough, sv.LastClosed)
		}
		if c.parts[i], err = c.newPartition(i, ss); err != nil {
			return nil, err
		}
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
	c.ctr.watermark.Store(int64(sv.Watermark))
	c.ctr.lastClosed.Store(int64(sv.LastClosed))
	return c, nil
}

// shardOf maps an export engine to its binning partition. The engine is
// the origin PoP, and the OD index space is partitioned by origin, so
// routing whole engines keeps every OD column (and every sequence cursor)
// owned by exactly one partition. Fibonacci hashing spreads dense small
// engine IDs; the mapping is deterministic for a given shard count, which
// is what lets checkpointed partition state restore in place.
func (c *collector) shardOf(engine uint32) int {
	n := c.cfg.Shards
	if n <= 1 {
		return 0
	}
	return int(uint64(engine*0x9E3779B1) * uint64(n) >> 32)
}

// ingest runs one datagram through the state machine and returns the bins
// it let close, merged across partitions and in ascending order, for the
// caller to submit; ok is false when the datagram did not decode. A raise
// lifts the watermark to the batch's bin; a stranded vote re-anchors it
// there first (reset). Either way every bin through watermark − Grace is
// sealed.
func (c *collector) ingest(pkt []byte) (closed []submittedBin, ok bool) {
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
		return nil, false
	}
	act, bin := c.parts[c.shardOf(b.Engine)].ingest(b, recs, int(c.ctr.watermark.Load()))
	switch act {
	case actNone:
		return nil, true
	case actStranded:
		c.reset(bin)
	case actRaise:
		c.ctr.watermark.Store(int64(bin))
	}
	return c.closeThrough(int(c.ctr.watermark.Load()) - c.cfg.Grace), true
}

// reset re-anchors a stranded watermark at bin: every partition drops its
// open bins beyond bin + MaxAhead as wild and rewinds its seal point to
// lastClosed. The rewind is sound because every bin sealed so far was
// returned to the caller, which submitted it before its next call.
func (c *collector) reset(bin int) {
	for _, p := range c.parts {
		p.discard(bin + c.cfg.MaxAhead)
	}
	c.ctr.watermark.Store(int64(bin))
	c.ctr.watermarkResets.Add(1)
}

// flush seals every bin through the watermark — the drain's tail.
func (c *collector) flush() []submittedBin {
	return c.closeThrough(int(c.ctr.watermark.Load()))
}

// closeThrough seals every partition through `through` and merges what
// they detached; lastClosed moves to the highest bin returned. Seals run
// one at a time with non-decreasing bounds, and a partition's late gate
// keeps a sealed bin from reopening: every bin is returned once, complete,
// in ascending order across calls.
func (c *collector) closeThrough(through int) []submittedBin {
	var closed []submittedBin
	for _, p := range c.parts {
		closed = merge(closed, p.seal(through))
	}
	if len(closed) > 0 {
		c.ctr.lastClosed.Store(int64(closed[len(closed)-1].bin))
	}
	return closed
}

// merge folds one partition's sealed bins into the bins sealed so far, both
// ascending. Partitions own disjoint OD columns, so adding one's vector
// into another's only adds to zeros: the merged vector has the bits a
// single partition holding every engine would have built.
func merge(into, from []submittedBin) []submittedBin {
	if len(into) == 0 {
		return from
	}
	for _, sb := range from {
		i, found := slices.BinarySearchFunc(into, sb.bin, func(x submittedBin, bin int) int { return cmp.Compare(x.bin, bin) })
		if !found {
			into = slices.Insert(into, i, sb)
			continue
		}
		acc := into[i].acc
		for c := range acc.bytes {
			acc.bytes[c] += sb.acc.bytes[c]
			acc.packets[c] += sb.acc.packets[c]
			acc.flows[c] += sb.acc.flows[c]
		}
		acc.records += sb.acc.records
	}
	return into
}

// state is the collector's share of a capture: counters, per-protocol
// breakdown, the partitions' open bins and cursors, and the template
// cache — everything of checkpoint.ServerState but AlarmBins, which the
// verdict consumer owns.
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
		Shards:          make([]checkpoint.ShardState, len(c.parts)),
	}
	for i, p := range c.parts {
		sv.Shards[i] = p.state()
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
