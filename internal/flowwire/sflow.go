package flowwire

import (
	"encoding/binary"
	"fmt"

	"netwide/internal/ipaddr"
)

// sFlow v5 — the packet-sampling format. An sFlow datagram is XDR-encoded:
// every scalar is a big-endian 32-bit word (or a pair of them for 64-bit
// counters). The layout this codec speaks:
//
//	datagram: version=5, agent address (type+bytes), sub-agent ID,
//	          datagram sequence, agent uptime (ms), sample count, samples...
//	flow sample (format 1): sample sequence, source ID, sampling rate,
//	          sample pool, drops, input, output, record count, records...
//	sampled-IPv4 record (format 3): original length, protocol, src, dst,
//	          src port, dst port, TCP flags, ToS
//
// Two impedance mismatches with flow export, and how this codec bridges
// them:
//
// Counters. sFlow samples packets, it does not aggregate flows: a standard
// flow sample describes ONE sampled packet, and a collector can only
// estimate traffic as (sampling rate) packets and (rate × original length)
// bytes per sample. That estimator can never reproduce the dataset's exact
// per-flow counters, so the house exporter adds an enterprise-specific
// flow record (enterprise 32473 — the RFC 5612 documentation range — format
// 1, 16 bytes: bytes uint64, packets uint64) carrying the exact aggregate.
// The decoder prefers it when present and falls back to the standard
// estimator otherwise, so it handles real sFlow agents and house replays
// with the same code path.
//
// Time. sFlow datagrams carry no wall clock — only agent uptime in
// milliseconds. The decoder derives UnixSecs as uptime/1000 and the
// exporter stamps uptime as unixSecs×1000, i.e. the agent "booted at the
// epoch". uint32 milliseconds wrap after ~49.7 days, so sFlow replays
// should use a small epoch (nwreplay's default 0 is fine for week-long
// datasets); real deployments would configure the collector's epoch to
// the agent's boot time instead.
const (
	sflowVersion = 5

	sflowAddrIPv4 = 1
	sflowAddrIPv6 = 2

	// sflowFlowSample is the standard flow-sample format (enterprise 0).
	sflowFlowSample = 1
	// sflowSampledIPv4 is the standard sampled-IPv4-header record format.
	sflowSampledIPv4 = 3
	// sflowExactCounters is the house enterprise-specific record carrying
	// exact per-flow byte/packet aggregates: enterprise 32473 (the RFC
	// 5612 documentation enterprise), format 1.
	sflowExactCounters = 32473<<12 | 1

	sflowSampledIPv4Len   = 32
	sflowExactCountersLen = 16
	// sflowHeaderLen and sflowSampleLen size what the exporter writes: the
	// IPv4-agent datagram header, and one flow sample (8-byte sample
	// header, 32 bytes of sample fields, both records with their 8-byte
	// headers).
	sflowHeaderLen = 28
	sflowSampleLen = 8 + 32 + 8 + sflowSampledIPv4Len + 8 + sflowExactCountersLen
	// sflowMaxSamples caps samples per datagram: 28-byte header plus 12
	// samples of 104 bytes stays under the common 1500-byte MTU.
	sflowMaxSamples = 12
)

// sflowDecoder decodes sFlow v5 datagrams. Stateless: sFlow needs no
// templates.
type sflowDecoder struct{}

func (sflowDecoder) Format() Format { return FormatSFlow }

func (sflowDecoder) Decode(pkt []byte, dst []Record) (Batch, []Record, error) {
	base := len(dst)
	be := binary.BigEndian
	if len(pkt) < 8 {
		return Batch{}, dst, fmt.Errorf("%w: %d bytes, sFlow preamble needs 8", ErrTruncated, len(pkt))
	}
	if v := be.Uint32(pkt); v != sflowVersion {
		return Batch{}, dst, fmt.Errorf("%w: sFlow %d", ErrBadVersion, v)
	}
	var addrLen int
	switch be.Uint32(pkt[4:]) {
	case sflowAddrIPv4:
		addrLen = 4
	case sflowAddrIPv6:
		addrLen = 16
	default:
		return Batch{}, dst, fmt.Errorf("%w: agent address type %d", ErrBadVersion, be.Uint32(pkt[4:]))
	}
	off := 8 + addrLen
	if len(pkt) < off+16 {
		return Batch{}, dst, fmt.Errorf("%w: %d bytes, datagram header needs %d", ErrTruncated, len(pkt), off+16)
	}
	subAgent := be.Uint32(pkt[off:])
	uptime := be.Uint32(pkt[off+8:])
	nsamples := int(be.Uint32(pkt[off+12:]))
	off += 16
	// Each sample costs at least its 8-byte header; a count beyond that is
	// lying about the buffer and is rejected before any decode work.
	if nsamples > (len(pkt)-off)/8 {
		return Batch{}, dst, fmt.Errorf("%w: %d samples cannot fit in %d remaining bytes", ErrTruncated, nsamples, len(pkt)-off)
	}
	b := Batch{
		Format:    FormatSFlow,
		Engine:    subAgent,
		UnixSecs:  uptime / 1000, // no wall clock on the wire; see package comment
		SysUptime: uptime,
	}
	flowSamples := 0
	for i := 0; i < nsamples; i++ {
		if len(pkt)-off < 8 {
			return Batch{}, dst[:base], fmt.Errorf("%w: sample %d header truncated", ErrTruncated, i)
		}
		sformat := be.Uint32(pkt[off:])
		slen := int(be.Uint32(pkt[off+4:]))
		off += 8
		if slen > len(pkt)-off {
			return Batch{}, dst[:base], fmt.Errorf("%w: sample %d length %d exceeds remaining %d bytes", ErrTruncated, i, slen, len(pkt)-off)
		}
		body := pkt[off : off+slen]
		off += slen
		if sformat != sflowFlowSample {
			continue // counter samples and expanded formats: legal, skipped
		}
		var seq, rate uint32
		var rec Record
		var ok bool
		var err error
		seq, rate, rec, ok, err = decodeFlowSample(body)
		if err != nil {
			return Batch{}, dst[:base], fmt.Errorf("sample %d: %w", i, err)
		}
		if flowSamples == 0 {
			b.Seq = seq
		}
		b.SampleRate = rate
		flowSamples++
		if ok {
			dst = append(dst, rec)
		}
	}
	if off != len(pkt) {
		return Batch{}, dst[:base], fmt.Errorf("%w: %d trailing bytes after %d samples", ErrBadCount, len(pkt)-off, nsamples)
	}
	if flowSamples > 0 {
		// The per-source sample sequence is the loss signal: the next
		// datagram's first flow sample should carry Seq+SeqAdvance.
		b.SeqModel = SeqSamples
		b.SeqAdvance = uint32(flowSamples)
	}
	return b, dst, nil
}

// decodeFlowSample parses one standard flow sample body, returning its
// sequence number, sampling rate and — when the sample carried a
// sampled-IPv4 record — the normalized flow record. Exact house counters
// override the standard (rate, rate×length) estimator.
func decodeFlowSample(body []byte) (seq, rate uint32, rec Record, ok bool, err error) {
	be := binary.BigEndian
	if len(body) < 32 {
		return 0, 0, rec, false, fmt.Errorf("%w: flow sample body %d bytes, needs 32", ErrTruncated, len(body))
	}
	seq = be.Uint32(body)
	rate = be.Uint32(body[8:])
	nrec := int(be.Uint32(body[28:]))
	pos := 32
	if nrec > (len(body)-pos)/8 {
		return 0, 0, rec, false, fmt.Errorf("%w: %d flow records cannot fit in %d bytes", ErrTruncated, nrec, len(body)-pos)
	}
	var pktLen uint64
	exact := false
	for r := 0; r < nrec; r++ {
		if len(body)-pos < 8 {
			return 0, 0, rec, false, fmt.Errorf("%w: flow record %d header truncated", ErrTruncated, r)
		}
		rformat := be.Uint32(body[pos:])
		rlen := int(be.Uint32(body[pos+4:]))
		pos += 8
		if rlen > len(body)-pos {
			return 0, 0, rec, false, fmt.Errorf("%w: flow record %d length %d exceeds remaining %d bytes", ErrTruncated, r, rlen, len(body)-pos)
		}
		data := body[pos : pos+rlen]
		pos += rlen
		switch rformat {
		case sflowSampledIPv4:
			if rlen < sflowSampledIPv4Len {
				return 0, 0, rec, false, fmt.Errorf("%w: sampled-IPv4 record %d bytes, needs %d", ErrTruncated, rlen, sflowSampledIPv4Len)
			}
			pktLen = uint64(be.Uint32(data))
			rec.Src = ipaddr.Addr(be.Uint32(data[8:]))
			rec.Dst = ipaddr.Addr(be.Uint32(data[12:]))
			ok = true
		case sflowExactCounters:
			if rlen < sflowExactCountersLen {
				return 0, 0, rec, false, fmt.Errorf("%w: exact-counters record %d bytes, needs %d", ErrTruncated, rlen, sflowExactCountersLen)
			}
			rec.Bytes = be.Uint64(data)
			rec.Packets = be.Uint64(data[8:])
			exact = true
		}
	}
	if pos != len(body) {
		return 0, 0, rec, false, fmt.Errorf("%w: %d trailing bytes in flow sample", ErrBadCount, len(body)-pos)
	}
	if ok {
		rec.Flows = 1
		if !exact {
			// Standard sFlow estimator: each sample stands for `rate`
			// packets of the sampled packet's size.
			rec.Packets = uint64(rate)
			rec.Bytes = uint64(rate) * pktLen
		}
	}
	return seq, rate, rec, ok, nil
}

// sflowExporter encodes flows as sFlow v5 datagrams: one flow sample per
// flow, each carrying a sampled-IPv4 record plus the house exact-counters
// record. Packets accumulate in a packetArena like the other exporters'.
type sflowExporter struct {
	engine     uint32
	sampleRate uint32
	now        func() (uint32, uint32)
	dgramSeq   uint32
	sampleSeq  uint32
	pool       uint32
	pending    []Flow
	packetArena
}

func newSFlowExporter(engine, sampleRate uint32, clock func() (uint32, uint32)) *sflowExporter {
	if clock == nil {
		clock = func() (uint32, uint32) { return 0, 0 }
	}
	return &sflowExporter{engine: engine, sampleRate: sampleRate, now: clock}
}

func (e *sflowExporter) Format() Format { return FormatSFlow }

func (e *sflowExporter) Add(f Flow) error {
	e.pending = append(e.pending, f)
	if len(e.pending) >= sflowMaxSamples {
		return e.Flush()
	}
	return nil
}

func (e *sflowExporter) Flush() error {
	if len(e.pending) == 0 {
		return nil
	}
	be := binary.BigEndian
	_, secs := e.now()
	rate := e.sampleRate
	if rate == 0 {
		rate = 1
	}
	buf := e.begin(sflowHeaderLen + sflowSampleLen*len(e.pending))
	buf = be.AppendUint32(buf, sflowVersion)
	buf = be.AppendUint32(buf, sflowAddrIPv4)
	buf = be.AppendUint32(buf, e.engine) // agent address: engine-derived
	buf = be.AppendUint32(buf, e.engine) // sub-agent ID carries the engine
	buf = be.AppendUint32(buf, e.dgramSeq)
	buf = be.AppendUint32(buf, secs*1000) // uptime ms; epoch-boot contract
	buf = be.AppendUint32(buf, uint32(len(e.pending)))
	for _, f := range e.pending {
		// Flow sample header: 96-byte body = 32-byte sample fields + two
		// records of 8-byte header each plus 32 and 16 byte bodies.
		buf = be.AppendUint32(buf, sflowFlowSample)
		buf = be.AppendUint32(buf, 96)
		buf = be.AppendUint32(buf, e.sampleSeq)
		buf = be.AppendUint32(buf, e.engine) // source ID: ifIndex type 0
		buf = be.AppendUint32(buf, rate)
		e.pool += rate
		buf = be.AppendUint32(buf, e.pool)
		buf = be.AppendUint32(buf, 0) // drops
		buf = be.AppendUint32(buf, 0) // input
		buf = be.AppendUint32(buf, 0) // output
		buf = be.AppendUint32(buf, 2) // record count
		// Sampled-IPv4 record: the flow's 5-tuple and mean packet size.
		buf = be.AppendUint32(buf, sflowSampledIPv4)
		buf = be.AppendUint32(buf, sflowSampledIPv4Len)
		meanPkt := f.Bytes
		if f.Packets > 0 {
			meanPkt = f.Bytes / f.Packets
		}
		buf = be.AppendUint32(buf, uint32(min(meanPkt, 0xFFFFFFFF)))
		buf = be.AppendUint32(buf, uint32(f.Key.Proto))
		buf = be.AppendUint32(buf, uint32(f.Key.Src))
		buf = be.AppendUint32(buf, uint32(f.Key.Dst))
		buf = be.AppendUint32(buf, uint32(f.Key.SrcPort))
		buf = be.AppendUint32(buf, uint32(f.Key.DstPort))
		buf = be.AppendUint32(buf, uint32(f.TCPFlags))
		buf = be.AppendUint32(buf, 0) // ToS
		// House exact-counters record: lossless per-flow aggregates.
		buf = be.AppendUint32(buf, sflowExactCounters)
		buf = be.AppendUint32(buf, sflowExactCountersLen)
		buf = be.AppendUint64(buf, f.Bytes)
		buf = be.AppendUint64(buf, f.Packets)
		e.sampleSeq++
	}
	e.end(buf)
	e.dgramSeq++
	e.pending = e.pending[:0]
	return nil
}
