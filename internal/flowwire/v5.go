package flowwire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"netwide/internal/flow"
	"netwide/internal/ipaddr"
)

// NetFlow v5 — the fixed-layout format the pipeline grew up on. All fields
// big-endian, as on the wire:
//
//	header (24 bytes): version, count, sysUptime, unixSecs, unixNsecs,
//	                   flowSequence, engineType, engineID, samplingInterval
//	record (48 bytes): srcAddr, dstAddr, nextHop, input, output, dPkts,
//	                   dOctets, first, last, srcPort, dstPort, pad, tcpFlags,
//	                   proto, tos, srcAS, dstAS, srcMask, dstMask, pad

// V5Version is the version word of a v5 export packet.
const V5Version = 5

// V5HeaderLen and V5RecordLen are the NetFlow v5 wire sizes.
const (
	V5HeaderLen = 24
	V5RecordLen = 48
	// V5MaxRecordsPerPacket is the v5 limit (a full packet stays under the
	// common 1500-byte MTU).
	V5MaxRecordsPerPacket = 30
)

// V5Header is the decoded v5 packet header.
type V5Header struct {
	Count            uint16
	SysUptime        uint32
	UnixSecs         uint32
	UnixNsecs        uint32
	FlowSequence     uint32
	EngineType       uint8
	EngineID         uint8
	SamplingInterval uint16 // low 14 bits: 1-in-N packet sampling
}

// Flow is the house full-fidelity flow record: the per-flow attributes the
// measurement pipeline models, of which the v5 wire record is the lossless
// serialization. Every format's exporter encodes from it (down-converting
// to whatever the format carries); decoders do not return Flows — they
// normalize to Record at the wire boundary.
type Flow struct {
	Key          flow.Key
	Packets      uint64
	Bytes        uint64
	First, Last  uint32 // router uptime at first/last packet of the flow
	TCPFlags     uint8
	InputSNMP    uint16
	OutputSNMP   uint16
	SrcAS, DstAS uint16
}

// EncodeV5Packet serializes a header and up to V5MaxRecordsPerPacket
// records.
func EncodeV5Packet(h V5Header, recs []Flow) ([]byte, error) {
	return AppendV5Packet(nil, h, recs)
}

// AppendV5Packet encodes the packet onto dst and returns the extended
// slice, reusing dst's capacity. It is the allocation-free form of
// EncodeV5Packet for callers that batch many packets into one arena.
func AppendV5Packet(dst []byte, h V5Header, recs []Flow) ([]byte, error) {
	if len(recs) > V5MaxRecordsPerPacket {
		return dst, fmt.Errorf("flowwire: %d records exceeds v5 packet limit %d", len(recs), V5MaxRecordsPerPacket)
	}
	h.Count = uint16(len(recs))
	base := len(dst)
	dst = slices.Grow(dst, V5HeaderLen+V5RecordLen*len(recs))
	dst = dst[:base+V5HeaderLen+V5RecordLen*len(recs)]
	buf := dst[base:]
	clear(buf) // unwritten fields (nextHop, padding) must be zero on the wire
	be := binary.BigEndian
	be.PutUint16(buf[0:], V5Version)
	be.PutUint16(buf[2:], h.Count)
	be.PutUint32(buf[4:], h.SysUptime)
	be.PutUint32(buf[8:], h.UnixSecs)
	be.PutUint32(buf[12:], h.UnixNsecs)
	be.PutUint32(buf[16:], h.FlowSequence)
	buf[20] = h.EngineType
	buf[21] = h.EngineID
	be.PutUint16(buf[22:], h.SamplingInterval)

	for i, r := range recs {
		off := V5HeaderLen + i*V5RecordLen
		if r.Packets > 0xFFFFFFFF || r.Bytes > 0xFFFFFFFF {
			return dst[:base], fmt.Errorf("flowwire: record %d counters exceed 32 bits", i)
		}
		be.PutUint32(buf[off+0:], uint32(r.Key.Src))
		be.PutUint32(buf[off+4:], uint32(r.Key.Dst))
		// nextHop (off+8) left zero: the simulator does not model it.
		be.PutUint16(buf[off+12:], r.InputSNMP)
		be.PutUint16(buf[off+14:], r.OutputSNMP)
		be.PutUint32(buf[off+16:], uint32(r.Packets))
		be.PutUint32(buf[off+20:], uint32(r.Bytes))
		be.PutUint32(buf[off+24:], r.First)
		be.PutUint32(buf[off+28:], r.Last)
		be.PutUint16(buf[off+32:], r.Key.SrcPort)
		be.PutUint16(buf[off+34:], r.Key.DstPort)
		buf[off+37] = r.TCPFlags
		buf[off+38] = uint8(r.Key.Proto)
		be.PutUint16(buf[off+40:], r.SrcAS)
		be.PutUint16(buf[off+42:], r.DstAS)
	}
	return dst, nil
}

// decodeV5Header parses and validates the header of one export packet. The
// validation order is deliberate for hostile input: fixed-size header
// first, then version, then the record count against the v5 packet limit,
// and only then the count-vs-length consistency check — so an
// attacker-controlled count can never drive an allocation or a read past
// the buffer.
func decodeV5Header(buf []byte) (V5Header, error) {
	if len(buf) < V5HeaderLen {
		return V5Header{}, fmt.Errorf("%w: %d bytes, v5 header needs %d", ErrTruncated, len(buf), V5HeaderLen)
	}
	be := binary.BigEndian
	if v := be.Uint16(buf[0:]); v != V5Version {
		return V5Header{}, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	h := V5Header{
		Count:            be.Uint16(buf[2:]),
		SysUptime:        be.Uint32(buf[4:]),
		UnixSecs:         be.Uint32(buf[8:]),
		UnixNsecs:        be.Uint32(buf[12:]),
		FlowSequence:     be.Uint32(buf[16:]),
		EngineType:       buf[20],
		EngineID:         buf[21],
		SamplingInterval: be.Uint16(buf[22:]),
	}
	if h.Count > V5MaxRecordsPerPacket {
		return V5Header{}, fmt.Errorf("%w: count %d exceeds v5 packet limit %d", ErrBadCount, h.Count, V5MaxRecordsPerPacket)
	}
	want := V5HeaderLen + int(h.Count)*V5RecordLen
	if len(buf) != want {
		if len(buf) < want {
			return V5Header{}, fmt.Errorf("%w: %d bytes, count %d needs %d", ErrTruncated, len(buf), h.Count, want)
		}
		return V5Header{}, fmt.Errorf("%w: %d trailing bytes after %d records", ErrBadCount, len(buf)-want, h.Count)
	}
	return h, nil
}

// decodeV5Record parses the V5RecordLen bytes at buf into a Flow.
func decodeV5Record(buf []byte) Flow {
	be := binary.BigEndian
	return Flow{
		Key: flow.Key{
			Src:     ipaddr.Addr(be.Uint32(buf[0:])),
			Dst:     ipaddr.Addr(be.Uint32(buf[4:])),
			SrcPort: be.Uint16(buf[32:]),
			DstPort: be.Uint16(buf[34:]),
			Proto:   flow.Proto(buf[38]),
		},
		InputSNMP:  be.Uint16(buf[12:]),
		OutputSNMP: be.Uint16(buf[14:]),
		Packets:    uint64(be.Uint32(buf[16:])),
		Bytes:      uint64(be.Uint32(buf[20:])),
		First:      be.Uint32(buf[24:]),
		Last:       be.Uint32(buf[28:]),
		TCPFlags:   buf[37],
		SrcAS:      be.Uint16(buf[40:]),
		DstAS:      be.Uint16(buf[42:]),
	}
}

// DecodeV5Packet parses one export packet. The packet is validated as a
// whole before any record is decoded: a truncated buffer, an unsupported
// version, a record count above the v5 packet limit, or a count
// inconsistent with the packet length all return an error without touching
// the record bytes, so hostile datagrams can neither over-allocate nor
// read out of bounds.
func DecodeV5Packet(buf []byte) (V5Header, []Flow, error) {
	return DecodeV5PacketAppend(nil, buf)
}

// DecodeV5PacketAppend is DecodeV5Packet decoding into dst's spare
// capacity. It is the allocation-free form for long-running collectors:
// reuse one record slice across packets (truncate to [:0] between them)
// and the per-packet decode settles into zero allocations.
func DecodeV5PacketAppend(dst []Flow, buf []byte) (V5Header, []Flow, error) {
	h, err := decodeV5Header(buf)
	if err != nil {
		return V5Header{}, dst, err
	}
	dst = slices.Grow(dst, int(h.Count))
	for i := 0; i < int(h.Count); i++ {
		dst = append(dst, decodeV5Record(buf[V5HeaderLen+i*V5RecordLen:]))
	}
	return h, dst, nil
}

// v5Decoder adapts the v5 codec to the normalized Decoder API. It is
// stateless: v5 needs no templates.
type v5Decoder struct{}

func (v5Decoder) Format() Format { return FormatNetFlowV5 }

func (v5Decoder) Decode(pkt []byte, dst []Record) (Batch, []Record, error) {
	h, err := decodeV5Header(pkt)
	if err != nil {
		return Batch{}, dst, err
	}
	// Straight from the wire: the detector needs five of a v5 record's
	// fifteen fields, and this loop runs once per record the daemon ingests.
	// TestV5DecodeMatchesFlowDecode holds it to decodeV5Record.
	dst = slices.Grow(dst, int(h.Count))
	be := binary.BigEndian
	for rec := pkt[V5HeaderLen:]; len(rec) >= V5RecordLen; rec = rec[V5RecordLen:] {
		dst = append(dst, Record{
			Src:     ipaddr.Addr(be.Uint32(rec[0:])),
			Dst:     ipaddr.Addr(be.Uint32(rec[4:])),
			Packets: uint64(be.Uint32(rec[16:])),
			Bytes:   uint64(be.Uint32(rec[20:])),
			Flows:   1,
		})
	}
	return Batch{
		Format:     FormatNetFlowV5,
		Engine:     uint32(h.EngineID),
		UnixSecs:   h.UnixSecs,
		SysUptime:  h.SysUptime,
		SampleRate: uint32(h.SamplingInterval & 0x3FFF),
		Seq:        h.FlowSequence,
		SeqAdvance: uint32(h.Count),
		SeqModel:   SeqFlows,
	}, dst, nil
}

// V5Exporter batches flow records into v5 export packets, maintaining the
// flow sequence counter. One V5Exporter models one router's export engine.
//
// Encoded packets accumulate in a single contiguous arena whose capacity
// survives Reset, so a hot loop that exports millions of records through
// one exporter settles into zero per-packet allocations.
type V5Exporter struct {
	EngineID         uint8
	SamplingInterval uint16
	seq              uint32
	pending          []Flow
	// arena holds the encoded packets back to back; ends[i] is the offset
	// one past packet i, so packet i spans arena[ends[i-1]:ends[i]].
	arena []byte
	ends  []int
	now   func() (sysUptime, unixSecs uint32)
}

// NewV5Exporter creates an exporter; clock supplies (sysUptime, unixSecs)
// for packet headers and may be nil for a fixed zero clock (useful in
// tests).
func NewV5Exporter(engineID uint8, samplingInterval uint16, clock func() (uint32, uint32)) *V5Exporter {
	if clock == nil {
		clock = func() (uint32, uint32) { return 0, 0 }
	}
	return &V5Exporter{EngineID: engineID, SamplingInterval: samplingInterval, now: clock}
}

// Add queues a record, flushing a packet when the batch is full.
func (e *V5Exporter) Add(r Flow) error {
	e.pending = append(e.pending, r)
	if len(e.pending) >= V5MaxRecordsPerPacket {
		return e.Flush()
	}
	return nil
}

// Flush emits any pending records as a packet.
func (e *V5Exporter) Flush() error {
	if len(e.pending) == 0 {
		return nil
	}
	up, secs := e.now()
	h := V5Header{
		SysUptime:        up,
		UnixSecs:         secs,
		FlowSequence:     e.seq,
		EngineID:         e.EngineID,
		SamplingInterval: e.SamplingInterval,
	}
	arena, err := AppendV5Packet(e.arena, h, e.pending)
	if err != nil {
		return err
	}
	e.arena = arena
	e.ends = append(e.ends, len(e.arena))
	e.seq += uint32(len(e.pending))
	e.pending = e.pending[:0]
	return nil
}

// ForEachPacket visits every accumulated packet without copying or
// clearing it. The slices alias the exporter's internal arena: they are
// valid until the next Reset and must not be retained past it. This is the
// zero-copy path a collector loop should prefer over Drain.
func (e *V5Exporter) ForEachPacket(fn func(pkt []byte) error) error {
	start := 0
	for _, end := range e.ends {
		if err := fn(e.arena[start:end:end]); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// Drain returns and clears the accumulated packets. The returned slices
// own the arena they alias: the exporter detaches it and allocates fresh
// on the next Flush, so drained packets stay valid indefinitely.
func (e *V5Exporter) Drain() [][]byte {
	if len(e.ends) == 0 {
		return nil
	}
	out := make([][]byte, len(e.ends))
	start := 0
	for i, end := range e.ends {
		out[i] = e.arena[start:end:end]
		start = end
	}
	e.arena = nil
	e.ends = e.ends[:0]
	return out
}

// Reset reconfigures the exporter for a new engine and clears all batching
// state (sequence counter, pending records, accumulated packets) while
// keeping the allocated buffers for reuse. Packets previously obtained
// from ForEachPacket are invalidated; packets obtained from Drain are not.
func (e *V5Exporter) Reset(engineID uint8, samplingInterval uint16) {
	e.EngineID = engineID
	e.SamplingInterval = samplingInterval
	e.seq = 0
	e.pending = e.pending[:0]
	e.arena = e.arena[:0]
	e.ends = e.ends[:0]
}

// v5ExportAdapter gives V5Exporter the generic Exporter face (Format).
type v5ExportAdapter struct{ *V5Exporter }

func (v5ExportAdapter) Format() Format { return FormatNetFlowV5 }

// V5Collector parses v5 export packets and tracks per-engine sequence
// numbers to count records lost in transit (v5's only loss signal).
type V5Collector struct {
	Records    []Flow
	Lost       uint64
	nextSeq    map[uint8]uint32
	seqStarted map[uint8]bool
}

// NewV5Collector returns an empty collector.
func NewV5Collector() *V5Collector {
	return &V5Collector{nextSeq: map[uint8]uint32{}, seqStarted: map[uint8]bool{}}
}

// Reset clears the collected records, loss counter and per-engine sequence
// state while keeping the allocated capacity, readying the collector for
// the next batch of packets.
func (c *V5Collector) Reset() {
	c.Records = c.Records[:0]
	c.Lost = 0
	clear(c.nextSeq)
	clear(c.seqStarted)
}

// Ingest parses one packet, appending its records. Records are decoded
// directly into the collector's Records slice, reusing its capacity.
func (c *V5Collector) Ingest(pkt []byte) error {
	h, err := decodeV5Header(pkt)
	if err != nil {
		return err
	}
	n := int(h.Count)
	if c.seqStarted[h.EngineID] {
		if exp := c.nextSeq[h.EngineID]; h.FlowSequence != exp {
			// Sequence gap: records were dropped between collector and
			// exporter (uint32 arithmetic handles wraparound).
			c.Lost += uint64(h.FlowSequence - exp)
		}
	}
	c.seqStarted[h.EngineID] = true
	c.nextSeq[h.EngineID] = h.FlowSequence + uint32(n)
	c.Records = slices.Grow(c.Records, n)
	for i := 0; i < n; i++ {
		c.Records = append(c.Records, decodeV5Record(pkt[V5HeaderLen+i*V5RecordLen:]))
	}
	return nil
}
