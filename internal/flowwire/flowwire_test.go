package flowwire

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"netwide/internal/flow"
	"netwide/internal/ipaddr"
)

// testFlows builds n deterministic full-fidelity flows.
func testFlows(n int) []Flow {
	out := make([]Flow, n)
	for i := range out {
		out[i] = Flow{
			Key: flow.Key{
				Src:     ipaddr.Addr(0x0A000000 + uint32(i)),
				Dst:     ipaddr.Addr(0x0B000000 + uint32(i)*3),
				SrcPort: uint16(1024 + i),
				DstPort: 443,
				Proto:   flow.Proto(6),
			},
			Packets:  uint64(10 + i),
			Bytes:    uint64(1500*(i+1) + i),
			First:    uint32(1000 + i),
			Last:     uint32(2000 + i),
			TCPFlags: 0x18,
		}
	}
	return out
}

// sum tallies the three measures over records.
func sum(recs []Record) (bytes, packets, flows uint64) {
	for _, r := range recs {
		bytes += r.Bytes
		packets += r.Packets
		flows += r.Flows
	}
	return
}

// TestRoundTripAllFormats drives every format through its exporter and the
// registry decoder and checks that the three measures, the engine identity
// and the sequence contract survive the wire exactly.
func TestRoundTripAllFormats(t *testing.T) {
	const engine, rate = 7, 16
	flows := testFlows(205) // several packets in every format
	wantBytes, wantPackets := uint64(0), uint64(0)
	for _, f := range flows {
		wantBytes += f.Bytes
		wantPackets += f.Packets
	}
	for _, format := range AllFormats() {
		t.Run(format.String(), func(t *testing.T) {
			exp, err := NewExporter(format, engine, rate, func() (uint32, uint32) { return 5000, 12345 })
			if err != nil {
				t.Fatal(err)
			}
			if exp.Format() != format {
				t.Fatalf("exporter format %v, want %v", exp.Format(), format)
			}
			for _, f := range flows {
				if err := exp.Add(f); err != nil {
					t.Fatal(err)
				}
			}
			if err := exp.Flush(); err != nil {
				t.Fatal(err)
			}
			pkts := exp.Drain()
			if len(pkts) < 2 {
				t.Fatalf("got %d packets, want several", len(pkts))
			}
			if more := exp.Drain(); more != nil {
				t.Fatalf("second Drain returned %d packets, want none", len(more))
			}

			reg, err := NewRegistry()
			if err != nil {
				t.Fatal(err)
			}
			var recs []Record
			nextSeq := uint32(0)
			seqStarted := false
			for i, p := range pkts {
				if f, err := DetectFormat(p); err != nil || f != format {
					t.Fatalf("packet %d: DetectFormat = %v, %v; want %v", i, f, err, format)
				}
				b, out, err := reg.Decode(p, recs)
				if err != nil {
					t.Fatalf("packet %d: %v", i, err)
				}
				recs = out
				if b.Format != format {
					t.Fatalf("packet %d: batch format %v, want %v", i, b.Format, format)
				}
				if b.Engine != engine {
					t.Fatalf("packet %d: engine %d, want %d", i, b.Engine, engine)
				}
				if b.UnixSecs != 12345 {
					t.Fatalf("packet %d: unixSecs %d, want 12345", i, b.UnixSecs)
				}
				if b.SeqModel == SeqNone || b.SeqAdvance == 0 {
					t.Fatalf("packet %d: no sequence info (%v advance %d)", i, b.SeqModel, b.SeqAdvance)
				}
				if seqStarted && b.Seq != nextSeq {
					t.Fatalf("packet %d: seq %d, want %d (%s)", i, b.Seq, nextSeq, b.SeqModel.Unit())
				}
				seqStarted = true
				nextSeq = b.Seq + b.SeqAdvance
			}
			gotBytes, gotPackets, gotFlows := sum(recs)
			if gotBytes != wantBytes || gotPackets != wantPackets || gotFlows != uint64(len(flows)) {
				t.Fatalf("decoded %d bytes / %d packets / %d flows, want %d / %d / %d",
					gotBytes, gotPackets, gotFlows, wantBytes, wantPackets, len(flows))
			}
		})
	}
}

// TestSampleRateRecovered checks each format's sampling-rate channel: the
// v5 header field, the v9/IPFIX options data record, the sFlow sample.
func TestSampleRateRecovered(t *testing.T) {
	for _, format := range AllFormats() {
		exp, err := NewExporter(format, 3, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		exp.Add(testFlows(1)[0])
		exp.Flush()
		reg, _ := NewRegistry()
		b, _, err := reg.Decode(exp.Drain()[0], nil)
		if err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		if b.SampleRate != 64 {
			t.Fatalf("%v: sample rate %d, want 64", format, b.SampleRate)
		}
	}
}

// TestMidStreamJoinNeedsTemplates: a collector joining a v9/IPFIX stream
// between template resends must reject data sets with ErrNoTemplate and
// recover once a template-bearing packet arrives.
func TestMidStreamJoinNeedsTemplates(t *testing.T) {
	for _, format := range []Format{FormatNetFlowV9, FormatIPFIX} {
		t.Run(format.String(), func(t *testing.T) {
			exp, _ := NewExporter(format, 1, 1, nil)
			flows := testFlows(2)
			exp.Add(flows[0])
			exp.Flush() // packet 0: templates + data
			exp.Add(flows[1])
			exp.Flush() // packet 1: data only
			pkts := exp.Drain()
			if len(pkts) != 2 {
				t.Fatalf("got %d packets, want 2", len(pkts))
			}

			late, _ := NewRegistry()
			if _, _, err := late.Decode(pkts[1], nil); !errors.Is(err, ErrNoTemplate) {
				t.Fatalf("data-only packet without templates: err %v, want ErrNoTemplate", err)
			}
			if _, _, err := late.Decode(pkts[0], nil); err != nil {
				t.Fatalf("template-bearing packet: %v", err)
			}
			if _, recs, err := late.Decode(pkts[1], nil); err != nil || len(recs) != 1 {
				t.Fatalf("after templates: recs %d err %v, want 1 record", len(recs), err)
			}
		})
	}
}

// TestTemplateResendCadence: templates ride along every templateResendEvery
// packets so a late joiner recovers within one period.
func TestTemplateResendCadence(t *testing.T) {
	exp, _ := NewExporter(FormatNetFlowV9, 1, 1, nil)
	f := testFlows(1)[0]
	for i := 0; i < templateResendEvery+2; i++ {
		exp.Add(f)
		exp.Flush()
	}
	pkts := exp.Drain()
	late, _ := NewRegistry()
	if _, _, err := late.Decode(pkts[1], nil); !errors.Is(err, ErrNoTemplate) {
		t.Fatalf("packet 1 should be data-only, got err %v", err)
	}
	// The resend packet decodes standalone.
	if _, recs, err := late.Decode(pkts[templateResendEvery], nil); err != nil || len(recs) != 1 {
		t.Fatalf("resend packet: recs %d err %v", len(recs), err)
	}
}

// TestIPFIXWithdrawal: a fieldCount-0 template record forgets the named
// template; naming set ID 2 forgets the whole source.
func TestIPFIXWithdrawal(t *testing.T) {
	exp, _ := NewExporter(FormatIPFIX, 9, 1, nil)
	exp.Add(testFlows(1)[0])
	exp.Flush()
	exp.Add(testFlows(1)[0])
	exp.Flush()
	pkts := exp.Drain()

	withdrawal := make([]byte, 0, 24)
	be := binary.BigEndian
	withdrawal = be.AppendUint16(withdrawal, ipfixVersion)
	withdrawal = be.AppendUint16(withdrawal, 24) // message length
	withdrawal = be.AppendUint32(withdrawal, 0)  // export time
	withdrawal = be.AppendUint32(withdrawal, 0)  // sequence
	withdrawal = be.AppendUint32(withdrawal, 9)  // observation domain
	withdrawal = be.AppendUint16(withdrawal, ipfixTemplateSet)
	withdrawal = be.AppendUint16(withdrawal, 8)
	withdrawal = be.AppendUint16(withdrawal, houseTemplateID)
	withdrawal = be.AppendUint16(withdrawal, 0) // fieldCount 0 = withdraw

	reg, _ := NewRegistry()
	if _, _, err := reg.Decode(pkts[0], nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Decode(withdrawal, nil); err != nil {
		t.Fatalf("withdrawal: %v", err)
	}
	if _, _, err := reg.Decode(pkts[1], nil); !errors.Is(err, ErrNoTemplate) {
		t.Fatalf("after withdrawal: err %v, want ErrNoTemplate", err)
	}
}

// TestHostileTemplates exercises the template validation gate with the
// classic degenerate definitions; every one must be rejected without
// panicking and without extending dst.
func TestHostileTemplates(t *testing.T) {
	be := binary.BigEndian
	v9pkt := func(body []byte, setID uint16, count uint16) []byte {
		p := make([]byte, 0, v9HeaderLen+4+len(body))
		p = be.AppendUint16(p, v9Version)
		p = be.AppendUint16(p, count)
		p = append(p, make([]byte, 12)...) // uptime, secs, seq
		p = be.AppendUint32(p, 1)          // source
		p = be.AppendUint16(p, setID)
		p = be.AppendUint16(p, uint16(4+len(body)))
		return append(p, body...)
	}
	tmpl := func(id, fc uint16, fields ...uint16) []byte {
		b := be.AppendUint16(nil, id)
		b = be.AppendUint16(b, fc)
		for _, w := range fields {
			b = be.AppendUint16(b, w)
		}
		return b
	}
	cases := []struct {
		name string
		pkt  []byte
		want error
	}{
		{"zero-length field", v9pkt(tmpl(256, 1, ieOctets, 0), 0, 1), ErrBadTemplate},
		{"field-count overflow", v9pkt(tmpl(256, 0xFFFF), 0, 1), ErrBadTemplate},
		{"truncated template", v9pkt(tmpl(256, 8, ieOctets, 4), 0, 1), ErrTruncated},
		{"reserved template ID", v9pkt(tmpl(255, 1, ieOctets, 4), 0, 1), ErrBadTemplate},
		{"reserved flowset ID", v9pkt(tmpl(256, 1, ieOctets, 4), 2, 1), ErrBadTemplate},
		{"addr element wrong width", v9pkt(tmpl(256, 1, ieSrcAddr, 2), 0, 1), ErrBadTemplate},
		{"variable-length field", v9pkt(tmpl(256, 1, ieOctets, 0xFFFF), 0, 1), ErrBadTemplate},
		{"record count mismatch", v9pkt(tmpl(256, 1, ieOctets, 4), 0, 5), ErrBadCount},
	}
	reg, _ := NewRegistry()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := make([]Record, 0, 4)
			_, out, err := reg.Decode(tc.pkt, dst)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err %v, want %v", err, tc.want)
			}
			if len(out) != 0 {
				t.Fatalf("dst extended by %d records on error", len(out))
			}
		})
	}
}

// TestTemplateDataIDCollision: a data template redefined under the same ID
// simply wins — both protocols allow redefinition — and subsequent data
// sets decode under the new layout.
func TestTemplateDataIDCollision(t *testing.T) {
	be := binary.BigEndian
	// Template 256 is {octets,4}; data records are 4 bytes.
	p := be.AppendUint16(nil, v9Version)
	p = be.AppendUint16(p, 3) // template + redefinition + 1 data record
	p = append(p, make([]byte, 12)...)
	p = be.AppendUint32(p, 1)
	// First definition: {srcAddr 4, dstAddr 4} (8-byte records).
	p = be.AppendUint16(p, 0)
	p = be.AppendUint16(p, 4+4+8)
	p = be.AppendUint16(p, 256)
	p = be.AppendUint16(p, 2)
	p = be.AppendUint16(p, ieSrcAddr)
	p = be.AppendUint16(p, 4)
	p = be.AppendUint16(p, ieDstAddr)
	p = be.AppendUint16(p, 4)
	// Redefinition in the same packet: {octets 8} (8-byte records).
	p = be.AppendUint16(p, 0)
	p = be.AppendUint16(p, 4+4+4)
	p = be.AppendUint16(p, 256)
	p = be.AppendUint16(p, 1)
	p = be.AppendUint16(p, ieOctets)
	p = be.AppendUint16(p, 8)
	// Data set: one 8-byte record, decoded under the redefinition.
	p = be.AppendUint16(p, 256)
	p = be.AppendUint16(p, 4+8)
	p = be.AppendUint64(p, 99)

	reg, _ := NewRegistry()
	_, recs, err := reg.Decode(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Bytes != 99 || recs[0].Src != 0 {
		t.Fatalf("recs = %+v, want one record with Bytes=99 under the redefined template", recs)
	}
}

// TestTemplateCacheEviction: the cache holds at most templateCacheCap
// templates; the least recently used goes first.
func TestTemplateCacheEviction(t *testing.T) {
	c := newTemplateCache()
	mk := func(id uint16) *template {
		tm, err := compileTemplate(id, 0, []FieldSpec{{ID: ieOctets, Length: 4}})
		if err != nil {
			t.Fatal(err)
		}
		return tm
	}
	tm := mk(256)
	for src := uint32(0); src < templateCacheCap+1; src++ {
		c.put(src, tm)
	}
	if c.len() != templateCacheCap {
		t.Fatalf("cache holds %d templates, want cap %d", c.len(), templateCacheCap)
	}
	if c.get(0, 256) != nil {
		t.Fatal("oldest template survived eviction")
	}
	if c.get(1, 256) == nil {
		t.Fatal("second-oldest template evicted early")
	}
}

// TestTemplateCacheExpiry: a template idle for templateTTL decode ticks is
// forgotten; use keeps it alive.
func TestTemplateCacheExpiry(t *testing.T) {
	c := newTemplateCache()
	tm, _ := compileTemplate(256, 0, []FieldSpec{{ID: ieOctets, Length: 4}})
	c.put(1, tm)
	c.tick += templateTTL // exactly at the limit: still alive
	if c.get(1, 256) == nil {
		t.Fatal("template expired at exactly TTL ticks")
	}
	c.tick += templateTTL + 1
	if c.get(1, 256) != nil {
		t.Fatal("template survived past TTL")
	}
	if c.len() != 0 {
		t.Fatalf("expired template still cached (len %d)", c.len())
	}
}

// TestTemplateCacheLearn: learning a wire template leaves the cache exactly
// as compiling it and calling put would — the same entries, ages and
// snapshots() order — for a new template, a re-announce of the cached
// definition (even one idle past its TTL), and a redefinition; and a
// re-announce of the cached definition allocates nothing.
func TestTemplateCacheLearn(t *testing.T) {
	type def struct {
		src    uint32
		id     uint16
		scope  uint16
		fields []FieldSpec
	}
	house := []FieldSpec{{ID: ieSrcAddr, Length: 4}, {ID: ieDstAddr, Length: 4}, {ID: ieOctets, Length: 8}}
	opts := []FieldSpec{{ID: ieScopeDomain, Length: 4}, {ID: ieSampling, Length: 4}}
	steps := []struct {
		def
		ticks uint64
	}{
		{def{1, 256, 0, house}, 1},
		{def{1, 257, 1, opts}, 1},
		{def{2, 256, 0, house}, 1},
		{def{1, 256, 0, house}, 3},                              // re-announce
		{def{1, 257, 1, opts}, templateTTL + 5},                 // re-announce after the TTL
		{def{2, 256, 0, house[:2]}, 1},                          // redefinition: fewer fields
		{def{2, 256, 1, house[:2]}, 1},                          // redefinition: same fields, new scope
		{def{1, 256, 0, append([]FieldSpec(nil), house...)}, 1}, // equal, not the same slice
	}
	viaPut, viaLearn := newTemplateCache(), newTemplateCache()
	for i, st := range steps {
		viaPut.tick += st.ticks
		viaLearn.tick += st.ticks
		tm, err := compileTemplate(st.id, st.scope, st.fields)
		if err != nil {
			t.Fatal(err)
		}
		viaPut.put(st.src, tm)
		if err := viaLearn.learn(st.src, st.id, st.scope, st.fields); err != nil {
			t.Fatal(err)
		}
		if got, want := viaLearn.snapshots(), viaPut.snapshots(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: learn left snapshots %+v, put %+v", i, got, want)
		}
		for k, el := range viaPut.entries {
			lel, ok := viaLearn.entries[k]
			if !ok {
				t.Fatalf("step %d: learn lost %+v", i, k)
			}
			pe, le := el.Value.(*templateEntry), lel.Value.(*templateEntry)
			if le.seen != pe.seen || !reflect.DeepEqual(*le.tmpl, *pe.tmpl) {
				t.Fatalf("step %d: %+v learned as %+v seen %d, put %+v seen %d", i, k, *le.tmpl, le.seen, *pe.tmpl, pe.seen)
			}
		}
	}
	if err := viaLearn.learn(3, 256, 0, []FieldSpec{{ID: ieOctets, Length: 0}}); err == nil {
		t.Fatal("learn accepted a zero-length field")
	}

	announce := append([]FieldSpec(nil), house...)
	if allocs := testing.AllocsPerRun(100, func() {
		viaLearn.tick++
		if err := viaLearn.learn(1, 256, 0, announce); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("re-announcing a cached template allocates %.1f times, want 0", allocs)
	}
}

// TestTemplateSnapshotRestore: snapshots round-trip through the checkpoint
// path and a restored registry decodes data-only packets; tampered
// snapshots are rejected like hostile wire templates.
func TestTemplateSnapshotRestore(t *testing.T) {
	for _, format := range []Format{FormatNetFlowV9, FormatIPFIX} {
		t.Run(format.String(), func(t *testing.T) {
			exp, _ := NewExporter(format, 4, 1, nil)
			exp.Add(testFlows(1)[0])
			exp.Flush()
			exp.Add(testFlows(1)[0])
			exp.Flush()
			pkts := exp.Drain()

			reg, _ := NewRegistry()
			if _, _, err := reg.Decode(pkts[0], nil); err != nil {
				t.Fatal(err)
			}
			snaps := reg.TemplateSnapshots(format)
			if len(snaps) != 2 { // house data + options templates
				t.Fatalf("%d snapshots, want 2", len(snaps))
			}

			fresh, _ := NewRegistry()
			if err := fresh.RestoreTemplates(format, snaps); err != nil {
				t.Fatal(err)
			}
			if _, recs, err := fresh.Decode(pkts[1], nil); err != nil || len(recs) != 1 {
				t.Fatalf("restored registry: recs %d err %v", len(recs), err)
			}

			bad := append([]TemplateSnapshot(nil), snaps...)
			bad[0].Fields = []FieldSpec{{ID: ieOctets, Length: 0}}
			if err := fresh.RestoreTemplates(format, bad); err == nil {
				t.Fatal("tampered snapshot accepted")
			}
		})
	}
}

// TestSFlowEstimator: a plain sFlow sample without the house exact-counters
// record falls back to the standard (rate, rate×length) estimator.
func TestSFlowEstimator(t *testing.T) {
	be := binary.BigEndian
	p := be.AppendUint32(nil, sflowVersion)
	p = be.AppendUint32(p, sflowAddrIPv4)
	p = be.AppendUint32(p, 0x7F000001) // agent addr
	p = be.AppendUint32(p, 2)          // sub-agent
	p = be.AppendUint32(p, 0)          // datagram seq
	p = be.AppendUint32(p, 90000)      // uptime ms
	p = be.AppendUint32(p, 1)          // one sample
	p = be.AppendUint32(p, sflowFlowSample)
	p = be.AppendUint32(p, 32+8+sflowSampledIPv4Len)
	p = be.AppendUint32(p, 17)         // sample seq
	p = be.AppendUint32(p, 2)          // source ID
	p = be.AppendUint32(p, 1000)       // sampling rate
	p = be.AppendUint32(p, 1000)       // pool
	p = append(p, make([]byte, 12)...) // drops, input, output
	p = be.AppendUint32(p, 1)          // one record
	p = be.AppendUint32(p, sflowSampledIPv4)
	p = be.AppendUint32(p, sflowSampledIPv4Len)
	p = be.AppendUint32(p, 640) // original packet length
	p = be.AppendUint32(p, 17)  // proto
	p = be.AppendUint32(p, 0x0A000001)
	p = be.AppendUint32(p, 0x0A000002)
	p = append(p, make([]byte, 16)...) // ports, flags, tos

	reg, _ := NewRegistry()
	b, recs, err := reg.Decode(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("%d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Packets != 1000 || r.Bytes != 1000*640 || r.Flows != 1 {
		t.Fatalf("estimated %d pkts / %d bytes, want 1000 / 640000", r.Packets, r.Bytes)
	}
	if r.Src != 0x0A000001 || r.Dst != 0x0A000002 {
		t.Fatalf("addresses %v -> %v", r.Src, r.Dst)
	}
	if b.Seq != 17 || b.SeqAdvance != 1 || b.SeqModel != SeqSamples {
		t.Fatalf("batch seq %d/%d model %v", b.Seq, b.SeqAdvance, b.SeqModel)
	}
	if b.UnixSecs != 90 {
		t.Fatalf("unixSecs %d, want uptime/1000 = 90", b.UnixSecs)
	}
}

// TestSFlowHostile: truncated and lying sFlow datagrams are rejected
// without panics or dst extension.
func TestSFlowHostile(t *testing.T) {
	exp, _ := NewExporter(FormatSFlow, 1, 4, nil)
	exp.Add(testFlows(1)[0])
	exp.Flush()
	good := exp.Drain()[0]

	reg, _ := NewRegistry()
	for cut := 0; cut < len(good); cut++ {
		if _, out, err := reg.Decode(good[:cut], nil); err == nil || len(out) != 0 {
			t.Fatalf("truncation at %d accepted (err %v, %d recs)", cut, err, len(out))
		}
	}
	// Sample count lying beyond the buffer.
	lie := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(lie[24:], 1<<30)
	if _, _, err := reg.Decode(lie, nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("lying sample count: err %v, want ErrTruncated", err)
	}
}

// TestV5Hostile mirrors the original netflow hostile-header tests against
// the moved codec.
func TestV5Hostile(t *testing.T) {
	h := V5Header{EngineID: 1}
	pkt, err := EncodeV5Packet(h, testFlows(2))
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := NewRegistry()
	if _, recs, err := reg.Decode(pkt, nil); err != nil || len(recs) != 2 {
		t.Fatalf("good packet: recs %d err %v", len(recs), err)
	}
	for cut := 4; cut < len(pkt); cut++ {
		if _, _, err := reg.Decode(pkt[:cut], nil); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	bad := append([]byte(nil), pkt...)
	binary.BigEndian.PutUint16(bad[2:], V5MaxRecordsPerPacket+1)
	if _, _, err := reg.Decode(bad, nil); !errors.Is(err, ErrBadCount) {
		t.Fatalf("oversized count: err %v, want ErrBadCount", err)
	}
}

// TestDetectFormat covers the dispatch table and its rejects.
func TestDetectFormat(t *testing.T) {
	if _, err := DetectFormat([]byte{0, 5}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short packet: %v", err)
	}
	if _, err := DetectFormat([]byte{0, 1, 2, 3}); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("junk version: %v", err)
	}
	if f, err := DetectFormat([]byte{0, 0, 0, 5}); err != nil || f != FormatSFlow {
		t.Fatalf("sflow preamble: %v %v", f, err)
	}
}

// TestRegistryAllowlist: a registry built for a subset rejects the rest
// with ErrDisabled while still naming the format for attribution.
func TestRegistryAllowlist(t *testing.T) {
	reg, err := NewRegistry(FormatNetFlowV5)
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Enabled(FormatNetFlowV5) || reg.Enabled(FormatIPFIX) {
		t.Fatal("allowlist not honored")
	}
	exp, _ := NewExporter(FormatIPFIX, 1, 1, nil)
	exp.Add(testFlows(1)[0])
	exp.Flush()
	b, _, err := reg.Decode(exp.Drain()[0], nil)
	if !errors.Is(err, ErrDisabled) {
		t.Fatalf("err %v, want ErrDisabled", err)
	}
	if b.Format != FormatIPFIX {
		t.Fatalf("disabled decode attributed to %v, want ipfix", b.Format)
	}
}

// TestParseFormat round-trips the CLI spellings.
func TestParseFormat(t *testing.T) {
	for _, f := range AllFormats() {
		got, err := ParseFormat(f.String())
		if err != nil || got != f {
			t.Fatalf("ParseFormat(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFormat("netflow11"); err == nil {
		t.Fatal("bogus format accepted")
	}
}

// refNormalize is a full-fidelity v5 flow's projection onto the detector's
// needs: the reference v5Decoder.Decode is checked against.
func refNormalize(f Flow) Record {
	return Record{Src: f.Key.Src, Dst: f.Key.Dst, Bytes: f.Bytes, Packets: f.Packets, Flows: 1}
}

// TestV5DecodeMatchesFlowDecode: the daemon's v5 decoder fills Records
// straight from the wire; it must accept, reject and decode exactly as the
// full-fidelity decoder followed by refNormalize does — on the shapes the v5
// fuzz target is seeded with and on packets of random record bytes.
func TestV5DecodeMatchesFlowDecode(t *testing.T) {
	valid, err := EncodeV5Packet(V5Header{SysUptime: 1, UnixSecs: 2, FlowSequence: 3, EngineID: 4, SamplingInterval: 100}, testFlows(2))
	if err != nil {
		t.Fatal(err)
	}
	empty, _ := EncodeV5Packet(V5Header{}, nil)
	hostile := append([]byte(nil), valid[:V5HeaderLen]...)
	binary.BigEndian.PutUint16(hostile[2:], 0xFFFF)
	pkts := [][]byte{valid, valid[:V5HeaderLen], valid[:len(valid)-1], append(append([]byte(nil), valid...), 0xFF), empty, hostile, nil}
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= V5MaxRecordsPerPacket; n++ {
		pkt := make([]byte, V5HeaderLen+n*V5RecordLen)
		rng.Read(pkt)
		binary.BigEndian.PutUint16(pkt[0:], V5Version)
		binary.BigEndian.PutUint16(pkt[2:], uint16(n))
		pkts = append(pkts, pkt)
	}
	for i, pkt := range pkts {
		_, flows, wantErr := DecodeV5PacketAppend(nil, pkt)
		_, recs, err := v5Decoder{}.Decode(pkt, nil)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("packet %d: Decode error %v, DecodeV5PacketAppend error %v", i, err, wantErr)
		}
		if len(recs) != len(flows) {
			t.Fatalf("packet %d: %d records, want %d", i, len(recs), len(flows))
		}
		for j, f := range flows {
			if recs[j] != refNormalize(f) {
				t.Fatalf("packet %d record %d: %+v, want %+v", i, j, recs[j], refNormalize(f))
			}
		}
	}
}
