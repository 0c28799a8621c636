package flowwire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"netwide/internal/ipaddr"
)

// NetFlow v9 (RFC 3954) and IPFIX (RFC 7011) share one decoder and one
// exporter here: both are template-based set/flowset formats and differ
// only in header layout, set numbering and sequence semantics.
//
//	                NetFlow v9                IPFIX
//	header          20 bytes                  16 bytes
//	                version=9, record count,  version=10, message length,
//	                sysUptime, unixSecs,      exportTime, sequence,
//	                sequence, source ID       observation domain ID
//	template set    flowset ID 0              set ID 2
//	options set     flowset ID 1              set ID 3
//	data sets       flowset ID >= 256         set ID >= 256
//	sequence        export packets            data records (options incl.)
//	withdrawals     none                      fieldCount 0 template records
//
// The exporter emits the fixed house template (below) and resends it —
// together with an options template carrying the sampling interval —
// every templateResendEvery packets, embedded ahead of the data set so a
// collector joining mid-stream recovers within one resend period and no
// packet is ever template-only (which would perturb record-count
// accounting for zero payload).

// v9 wire constants.
const (
	v9Version   = 9
	v9HeaderLen = 20
)

// IPFIX wire constants.
const (
	ipfixVersion     = 10
	ipfixHeaderLen   = 16
	ipfixTemplateSet = 2
	ipfixOptionsSet  = 3
)

// House template layout: the data template every exporter here announces.
// Field order is the v5 record's information, templated.
var houseTemplateFields = []FieldSpec{
	{ID: ieSrcAddr, Length: 4},
	{ID: ieDstAddr, Length: 4},
	{ID: iePackets, Length: 4},
	{ID: ieOctets, Length: 4},
	{ID: ieProto, Length: 1},
	{ID: ieSrcPort, Length: 2},
	{ID: ieDstPort, Length: 2},
	{ID: ieTCPFlags, Length: 1},
	{ID: ieFirst, Length: 4},
	{ID: ieLast, Length: 4},
}

const (
	houseTemplateID        = 256 // data template
	houseOptionsTemplateID = 257 // options template: sampling interval by domain
	houseTemplateRecLen    = 30  // sum of houseTemplateFields lengths
	// templateResendEvery is how many export packets go between template
	// retransmissions (the first packet always carries them).
	templateResendEvery = 64
	// maxTemplateRecords caps data records per packet, keeping packets
	// with a full template block under the common 1500-byte MTU.
	maxTemplateRecords = 40
)

// templateDecoder decodes NetFlow v9 or IPFIX packets against a bounded
// per-exporter template cache. Not safe for concurrent use.
type templateDecoder struct {
	format  Format
	cache   *templateCache
	scratch []FieldSpec // reused template-record parse buffer
}

func newTemplateDecoder(f Format) *templateDecoder {
	return &templateDecoder{format: f, cache: newTemplateCache()}
}

func (d *templateDecoder) Format() Format { return d.format }

func (d *templateDecoder) snapshots() []TemplateSnapshot { return d.cache.snapshots() }

func (d *templateDecoder) restore(snaps []TemplateSnapshot) error { return d.cache.restore(snaps) }

// Decode parses one packet. Hostile-input discipline mirrors the v5
// decoder: every set length is bounds-checked against the buffer before
// its body is touched, template definitions are validated before they
// allocate, and on any error dst is returned unextended.
func (d *templateDecoder) Decode(pkt []byte, dst []Record) (Batch, []Record, error) {
	d.cache.bump()
	if d.format == FormatIPFIX {
		return d.decodeIPFIX(pkt, dst)
	}
	return d.decodeV9(pkt, dst)
}

func (d *templateDecoder) decodeV9(pkt []byte, dst []Record) (Batch, []Record, error) {
	base := len(dst)
	if len(pkt) < v9HeaderLen {
		return Batch{}, dst, fmt.Errorf("%w: %d bytes, v9 header needs %d", ErrTruncated, len(pkt), v9HeaderLen)
	}
	be := binary.BigEndian
	if v := be.Uint16(pkt); v != v9Version {
		return Batch{}, dst, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	count := be.Uint16(pkt[2:])
	b := Batch{
		Format:     FormatNetFlowV9,
		SysUptime:  be.Uint32(pkt[4:]),
		UnixSecs:   be.Uint32(pkt[8:]),
		Seq:        be.Uint32(pkt[12:]),
		Engine:     be.Uint32(pkt[16:]),
		SeqAdvance: 1, // RFC 3954 §5.1: the counter counts export packets
		SeqModel:   SeqPackets,
	}
	records := 0
	off := v9HeaderLen
	for off < len(pkt) {
		if len(pkt)-off < 4 {
			return Batch{}, dst[:base], fmt.Errorf("%w: %d trailing bytes, flowset header needs 4", ErrTruncated, len(pkt)-off)
		}
		setID := be.Uint16(pkt[off:])
		setLen := int(be.Uint16(pkt[off+2:]))
		if setLen < 4 {
			return Batch{}, dst[:base], fmt.Errorf("%w: flowset length %d below header size", ErrBadCount, setLen)
		}
		if off+setLen > len(pkt) {
			return Batch{}, dst[:base], fmt.Errorf("%w: flowset length %d exceeds remaining %d bytes", ErrTruncated, setLen, len(pkt)-off)
		}
		body := pkt[off+4 : off+setLen]
		var n int
		var err error
		switch {
		case setID == 0:
			n, err = d.parseV9Templates(b.Engine, body)
		case setID == 1:
			n, err = d.parseV9OptionsTemplates(b.Engine, body)
		case setID < minDataSetID:
			err = fmt.Errorf("%w: reserved flowset ID %d", ErrBadTemplate, setID)
		default:
			n, dst, b.SampleRate, err = d.decodeDataSet(b.Engine, setID, body, dst, b.SampleRate)
		}
		if err != nil {
			return Batch{}, dst[:base], err
		}
		records += n
		off += setLen
	}
	if records != int(count) {
		return Batch{}, dst[:base], fmt.Errorf("%w: header says %d records, packet carries %d", ErrBadCount, count, records)
	}
	return b, dst, nil
}

func (d *templateDecoder) decodeIPFIX(pkt []byte, dst []Record) (Batch, []Record, error) {
	base := len(dst)
	if len(pkt) < ipfixHeaderLen {
		return Batch{}, dst, fmt.Errorf("%w: %d bytes, IPFIX header needs %d", ErrTruncated, len(pkt), ipfixHeaderLen)
	}
	be := binary.BigEndian
	if v := be.Uint16(pkt); v != ipfixVersion {
		return Batch{}, dst, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	msgLen := int(be.Uint16(pkt[2:]))
	if msgLen > len(pkt) {
		return Batch{}, dst, fmt.Errorf("%w: message length %d exceeds %d-byte datagram", ErrTruncated, msgLen, len(pkt))
	}
	if msgLen < len(pkt) {
		return Batch{}, dst, fmt.Errorf("%w: %d trailing bytes after %d-byte message", ErrBadCount, len(pkt)-msgLen, msgLen)
	}
	b := Batch{
		Format:   FormatIPFIX,
		UnixSecs: be.Uint32(pkt[4:]),
		Seq:      be.Uint32(pkt[8:]),
		Engine:   be.Uint32(pkt[12:]),
		SeqModel: SeqRecords,
	}
	dataRecords := 0
	off := ipfixHeaderLen
	for off < len(pkt) {
		if len(pkt)-off < 4 {
			return Batch{}, dst[:base], fmt.Errorf("%w: %d trailing bytes, set header needs 4", ErrTruncated, len(pkt)-off)
		}
		setID := be.Uint16(pkt[off:])
		setLen := int(be.Uint16(pkt[off+2:]))
		if setLen < 4 {
			return Batch{}, dst[:base], fmt.Errorf("%w: set length %d below header size", ErrBadCount, setLen)
		}
		if off+setLen > len(pkt) {
			return Batch{}, dst[:base], fmt.Errorf("%w: set length %d exceeds remaining %d bytes", ErrTruncated, setLen, len(pkt)-off)
		}
		body := pkt[off+4 : off+setLen]
		var n int
		var err error
		switch {
		case setID == ipfixTemplateSet:
			err = d.parseIPFIXTemplates(b.Engine, body, false)
		case setID == ipfixOptionsSet:
			err = d.parseIPFIXTemplates(b.Engine, body, true)
		case setID < minDataSetID:
			err = fmt.Errorf("%w: reserved set ID %d", ErrBadTemplate, setID)
		default:
			n, dst, b.SampleRate, err = d.decodeDataSet(b.Engine, setID, body, dst, b.SampleRate)
		}
		if err != nil {
			return Batch{}, dst[:base], err
		}
		dataRecords += n
		off += setLen
	}
	// RFC 7011 §3.1: the sequence counter counts data records, options
	// data included; template records do not count.
	b.SeqAdvance = uint32(dataRecords)
	return b, dst, nil
}

// decodeDataSet resolves the template and decodes the set body. Options
// data records are consumed for their sampling interval but produce no
// flow records; up to recLen-1 trailing bytes are tolerated as padding.
func (d *templateDecoder) decodeDataSet(source uint32, setID uint16, body []byte, dst []Record, sampleRate uint32) (int, []Record, uint32, error) {
	t := d.cache.get(source, setID)
	if t == nil {
		return 0, dst, sampleRate, fmt.Errorf("%w: set %d from source %d", ErrNoTemplate, setID, source)
	}
	n := len(body) / t.recLen
	if t.scope > 0 {
		if t.sampOff >= 0 {
			for i := 0; i < n; i++ {
				sampleRate = uint32(readUint(body[i*t.recLen+t.sampOff:], t.sampLen))
			}
		}
		return n, dst, sampleRate, nil
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		rec := body[i*t.recLen:]
		r := Record{Flows: 1}
		if t.srcOff >= 0 {
			r.Src = ipaddr.Addr(binary.BigEndian.Uint32(rec[t.srcOff:]))
		}
		if t.dstOff >= 0 {
			r.Dst = ipaddr.Addr(binary.BigEndian.Uint32(rec[t.dstOff:]))
		}
		if t.bytesOff >= 0 {
			r.Bytes = readUint(rec[t.bytesOff:], t.bytesLen)
		}
		if t.pktsOff >= 0 {
			r.Packets = readUint(rec[t.pktsOff:], t.pktsLen)
		}
		dst = append(dst, r)
	}
	return n, dst, sampleRate, nil
}

// parseV9Templates parses a template flowset body (one or more template
// records), returning how many records it held. Up to 3 trailing bytes
// are padding; more is a malformed record.
func (d *templateDecoder) parseV9Templates(source uint32, body []byte) (int, error) {
	be := binary.BigEndian
	records := 0
	pos := 0
	for len(body)-pos > 3 {
		id := be.Uint16(body[pos:])
		fc := int(be.Uint16(body[pos+2:]))
		pos += 4
		if fc == 0 || fc > maxTemplateFields {
			return records, fmt.Errorf("%w: template %d declares %d fields (want 1..%d)", ErrBadTemplate, id, fc, maxTemplateFields)
		}
		if len(body)-pos < fc*4 {
			return records, fmt.Errorf("%w: template %d needs %d field bytes, %d remain", ErrTruncated, id, fc*4, len(body)-pos)
		}
		d.scratch = d.scratch[:0]
		for i := 0; i < fc; i++ {
			d.scratch = append(d.scratch, FieldSpec{ID: be.Uint16(body[pos:]), Length: be.Uint16(body[pos+2:])})
			pos += 4
		}
		if err := d.cache.learn(source, id, 0, d.scratch); err != nil {
			return records, err
		}
		records++
	}
	return records, nil
}

// parseV9OptionsTemplates parses an options template flowset body. v9
// expresses the scope/option split in bytes, not field counts.
func (d *templateDecoder) parseV9OptionsTemplates(source uint32, body []byte) (int, error) {
	be := binary.BigEndian
	records := 0
	pos := 0
	for len(body)-pos > 3 {
		if len(body)-pos < 6 {
			return records, fmt.Errorf("%w: options template header needs 6 bytes, %d remain", ErrTruncated, len(body)-pos)
		}
		id := be.Uint16(body[pos:])
		scopeLen := int(be.Uint16(body[pos+2:]))
		optLen := int(be.Uint16(body[pos+4:]))
		pos += 6
		if scopeLen%4 != 0 || optLen%4 != 0 {
			return records, fmt.Errorf("%w: options template %d scope/option lengths %d/%d not multiples of 4", ErrBadTemplate, id, scopeLen, optLen)
		}
		fc := (scopeLen + optLen) / 4
		if fc == 0 || fc > maxTemplateFields {
			return records, fmt.Errorf("%w: options template %d declares %d fields (want 1..%d)", ErrBadTemplate, id, fc, maxTemplateFields)
		}
		if len(body)-pos < fc*4 {
			return records, fmt.Errorf("%w: options template %d needs %d field bytes, %d remain", ErrTruncated, id, fc*4, len(body)-pos)
		}
		d.scratch = d.scratch[:0]
		for i := 0; i < fc; i++ {
			d.scratch = append(d.scratch, FieldSpec{ID: be.Uint16(body[pos:]), Length: be.Uint16(body[pos+2:])})
			pos += 4
		}
		if err := d.cache.learn(source, id, uint16(scopeLen/4), d.scratch); err != nil {
			return records, err
		}
		records++
	}
	return records, nil
}

// parseIPFIXTemplates parses a template or options-template set body,
// including fieldCount-0 withdrawal records (RFC 7011 §8.1): a withdrawal
// naming the template/options-template set ID forgets every template of
// the source; one naming a data template ID forgets just that template.
func (d *templateDecoder) parseIPFIXTemplates(source uint32, body []byte, options bool) error {
	be := binary.BigEndian
	pos := 0
	for len(body)-pos > 3 {
		id := be.Uint16(body[pos:])
		fc := int(be.Uint16(body[pos+2:]))
		pos += 4
		if fc == 0 { // template withdrawal
			switch {
			case id == ipfixTemplateSet || id == ipfixOptionsSet:
				d.cache.dropSource(source)
			case id >= minDataSetID:
				d.cache.drop(source, id)
			default:
				return fmt.Errorf("%w: withdrawal names reserved template ID %d", ErrBadTemplate, id)
			}
			continue
		}
		if fc > maxTemplateFields {
			return fmt.Errorf("%w: template %d declares %d fields (max %d)", ErrBadTemplate, id, fc, maxTemplateFields)
		}
		scope := 0
		if options {
			if len(body)-pos < 2 {
				return fmt.Errorf("%w: options template %d missing scope count", ErrTruncated, id)
			}
			scope = int(be.Uint16(body[pos:]))
			pos += 2
			if scope == 0 {
				return fmt.Errorf("%w: options template %d has zero scope fields", ErrBadTemplate, id)
			}
		}
		d.scratch = d.scratch[:0]
		for i := 0; i < fc; i++ {
			if len(body)-pos < 4 {
				return fmt.Errorf("%w: template %d field %d truncated", ErrTruncated, id, i)
			}
			spec := FieldSpec{ID: be.Uint16(body[pos:]), Length: be.Uint16(body[pos+2:])}
			pos += 4
			if spec.ID&0x8000 != 0 { // enterprise bit
				if len(body)-pos < 4 {
					return fmt.Errorf("%w: template %d field %d missing enterprise number", ErrTruncated, id, i)
				}
				spec.ID &^= 0x8000
				spec.Enterprise = be.Uint32(body[pos:])
				pos += 4
			}
			d.scratch = append(d.scratch, spec)
		}
		if err := d.cache.learn(source, id, uint16(scope), d.scratch); err != nil {
			return err
		}
	}
	return nil
}

// templateExporter encodes flows as NetFlow v9 or IPFIX packets using the
// house template, resending template sets periodically. Packets accumulate
// in a packetArena like the v5 exporter's.
type templateExporter struct {
	format     Format
	engine     uint32
	sampleRate uint32
	now        func() (uint32, uint32)
	seq        uint32 // v9: packets exported; IPFIX: data records exported
	sincetmpl  int    // packets since templates last sent; -1 = never sent
	pending    []Flow
	packetArena
}

func newTemplateExporter(format Format, engine, sampleRate uint32, clock func() (uint32, uint32)) *templateExporter {
	if clock == nil {
		clock = func() (uint32, uint32) { return 0, 0 }
	}
	return &templateExporter{format: format, engine: engine, sampleRate: sampleRate, now: clock, sincetmpl: -1}
}

func (e *templateExporter) Format() Format { return e.format }

func (e *templateExporter) Add(f Flow) error {
	e.pending = append(e.pending, f)
	if len(e.pending) >= maxTemplateRecords {
		return e.Flush()
	}
	return nil
}

func (e *templateExporter) Flush() error {
	if len(e.pending) == 0 {
		return nil
	}
	for _, f := range e.pending {
		if f.Packets > 0xFFFFFFFF || f.Bytes > 0xFFFFFFFF {
			return fmt.Errorf("flowwire: flow counters exceed the house template's 32-bit fields")
		}
	}
	withTemplates := e.sincetmpl < 0 || e.sincetmpl >= templateResendEvery
	if e.format == FormatIPFIX {
		e.flushIPFIX(withTemplates)
	} else {
		e.flushV9(withTemplates)
	}
	if withTemplates {
		e.sincetmpl = 0
	}
	e.sincetmpl++
	e.pending = e.pending[:0]
	return nil
}

// templatePacketMax bounds the length of a v9 or IPFIX packet of n house
// records: the longer (v9) header, the template and options template sets
// with their options data set, and the padded data set.
func templatePacketMax(n int) int {
	templateSets := 4 + 4 + 4*len(houseTemplateFields) + 20 + 12
	return v9HeaderLen + templateSets + 4 + houseTemplateRecLen*n + 3
}

// appendHouseTemplateRecord encodes one flow in the house template layout.
func appendHouseTemplateRecord(dst []byte, f Flow) []byte {
	be := binary.BigEndian
	dst = be.AppendUint32(dst, uint32(f.Key.Src))
	dst = be.AppendUint32(dst, uint32(f.Key.Dst))
	dst = be.AppendUint32(dst, uint32(f.Packets))
	dst = be.AppendUint32(dst, uint32(f.Bytes))
	dst = append(dst, uint8(f.Key.Proto))
	dst = be.AppendUint16(dst, f.Key.SrcPort)
	dst = be.AppendUint16(dst, f.Key.DstPort)
	dst = append(dst, f.TCPFlags)
	dst = be.AppendUint32(dst, f.First)
	dst = be.AppendUint32(dst, f.Last)
	return dst
}

func (e *templateExporter) flushV9(withTemplates bool) {
	be := binary.BigEndian
	up, secs := e.now()
	n := len(e.pending)
	records := n
	buf := e.begin(templatePacketMax(n))
	base := len(buf)
	// Header; the record count at base+2 is known up front.
	buf = be.AppendUint16(buf, v9Version)
	buf = be.AppendUint16(buf, 0) // count, patched below
	buf = be.AppendUint32(buf, up)
	buf = be.AppendUint32(buf, secs)
	buf = be.AppendUint32(buf, e.seq)
	buf = be.AppendUint32(buf, e.engine)
	if withTemplates {
		// Template flowset: the house data template.
		buf = be.AppendUint16(buf, 0)
		buf = be.AppendUint16(buf, uint16(4+4+4*len(houseTemplateFields)))
		buf = be.AppendUint16(buf, houseTemplateID)
		buf = be.AppendUint16(buf, uint16(len(houseTemplateFields)))
		for _, fs := range houseTemplateFields {
			buf = be.AppendUint16(buf, fs.ID)
			buf = be.AppendUint16(buf, fs.Length)
		}
		records++
		// Options template flowset: sampling interval scoped by system;
		// 18 bytes of content padded to 20.
		buf = be.AppendUint16(buf, 1)
		buf = be.AppendUint16(buf, 20)
		buf = be.AppendUint16(buf, houseOptionsTemplateID)
		buf = be.AppendUint16(buf, 4) // scope length, bytes
		buf = be.AppendUint16(buf, 4) // option length, bytes
		buf = be.AppendUint16(buf, 1) // scope field type: System
		buf = be.AppendUint16(buf, 4)
		buf = be.AppendUint16(buf, ieSampling)
		buf = be.AppendUint16(buf, 4)
		buf = append(buf, 0, 0) // padding
		records++
		// Options data flowset: one record (scope value, sampling rate).
		buf = be.AppendUint16(buf, houseOptionsTemplateID)
		buf = be.AppendUint16(buf, 12)
		buf = be.AppendUint32(buf, e.engine)
		buf = be.AppendUint32(buf, e.sampleRate)
		records++
	}
	// Data flowset.
	pad := (4 - (4+houseTemplateRecLen*n)%4) % 4
	buf = be.AppendUint16(buf, houseTemplateID)
	buf = be.AppendUint16(buf, uint16(4+houseTemplateRecLen*n+pad))
	for _, f := range e.pending {
		buf = appendHouseTemplateRecord(buf, f)
	}
	for i := 0; i < pad; i++ {
		buf = append(buf, 0)
	}
	be.PutUint16(buf[base+2:], uint16(records))
	e.end(buf)
	e.seq++ // v9 counts export packets
}

func (e *templateExporter) flushIPFIX(withTemplates bool) {
	be := binary.BigEndian
	_, secs := e.now()
	n := len(e.pending)
	dataRecords := n
	buf := e.begin(templatePacketMax(n))
	base := len(buf)
	buf = be.AppendUint16(buf, ipfixVersion)
	buf = be.AppendUint16(buf, 0) // message length, patched below
	buf = be.AppendUint32(buf, secs)
	buf = be.AppendUint32(buf, e.seq)
	buf = be.AppendUint32(buf, e.engine)
	if withTemplates {
		// Template set.
		buf = be.AppendUint16(buf, ipfixTemplateSet)
		buf = be.AppendUint16(buf, uint16(4+4+4*len(houseTemplateFields)))
		buf = be.AppendUint16(buf, houseTemplateID)
		buf = be.AppendUint16(buf, uint16(len(houseTemplateFields)))
		for _, fs := range houseTemplateFields {
			buf = be.AppendUint16(buf, fs.ID)
			buf = be.AppendUint16(buf, fs.Length)
		}
		// Options template set: sampling interval scoped by observation
		// domain; 18 bytes of content padded to 20.
		buf = be.AppendUint16(buf, ipfixOptionsSet)
		buf = be.AppendUint16(buf, 20)
		buf = be.AppendUint16(buf, houseOptionsTemplateID)
		buf = be.AppendUint16(buf, 2) // field count
		buf = be.AppendUint16(buf, 1) // scope field count
		buf = be.AppendUint16(buf, ieScopeDomain)
		buf = be.AppendUint16(buf, 4)
		buf = be.AppendUint16(buf, ieSampling)
		buf = be.AppendUint16(buf, 4)
		buf = append(buf, 0, 0) // padding
		// Options data set: one record. Counts toward the sequence.
		buf = be.AppendUint16(buf, houseOptionsTemplateID)
		buf = be.AppendUint16(buf, 12)
		buf = be.AppendUint32(buf, e.engine)
		buf = be.AppendUint32(buf, e.sampleRate)
		dataRecords++
	}
	pad := (4 - (4+houseTemplateRecLen*n)%4) % 4
	buf = be.AppendUint16(buf, houseTemplateID)
	buf = be.AppendUint16(buf, uint16(4+houseTemplateRecLen*n+pad))
	for _, f := range e.pending {
		buf = appendHouseTemplateRecord(buf, f)
	}
	for i := 0; i < pad; i++ {
		buf = append(buf, 0)
	}
	be.PutUint16(buf[base+2:], uint16(len(buf)-base))
	e.end(buf)
	e.seq += uint32(dataRecords) // RFC 7011: data records, options included
}
