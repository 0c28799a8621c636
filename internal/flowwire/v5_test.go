package flowwire

// The NetFlow v5 codec's own tests: encode/decode round trips, hostile
// headers, the exporter's batching and arena reuse, and the collector's
// per-engine loss accounting.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netwide/internal/flow"
	"netwide/internal/ipaddr"
)

func v5Flow(i int) Flow {
	return Flow{
		Key: flow.Key{
			Src:     ipaddr.FromOctets(10, byte(i), 0, 1),
			Dst:     ipaddr.FromOctets(10, 16, byte(i), 2),
			SrcPort: uint16(1024 + i),
			DstPort: flow.PortHTTP,
			Proto:   flow.ProtoTCP,
		},
		Packets:  uint64(i + 1),
		Bytes:    uint64((i + 1) * 600),
		First:    100,
		Last:     160,
		TCPFlags: 0x18,
		SrcAS:    11537,
		DstAS:    11537,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	h := V5Header{SysUptime: 42, UnixSecs: 1050000000, FlowSequence: 7, EngineID: 3, SamplingInterval: 100}
	recs := []Flow{v5Flow(0), v5Flow(1), v5Flow(2)}
	pkt, err := EncodeV5Packet(h, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt) != V5HeaderLen+3*V5RecordLen {
		t.Fatalf("packet length %d", len(pkt))
	}
	h2, recs2, err := DecodeV5Packet(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Count != 3 || h2.FlowSequence != 7 || h2.EngineID != 3 || h2.SamplingInterval != 100 || h2.UnixSecs != h.UnixSecs {
		t.Fatalf("header mismatch: %+v", h2)
	}
	for i := range recs {
		if recs2[i] != recs[i] {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, recs2[i], recs[i])
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	pkt, _ := EncodeV5Packet(V5Header{}, []Flow{v5Flow(0)})

	if _, _, err := DecodeV5Packet(pkt[:10]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short header: %v", err)
	}
	if _, _, err := DecodeV5Packet(pkt[:len(pkt)-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated record: %v", err)
	}
	long := append(append([]byte{}, pkt...), 0)
	if _, _, err := DecodeV5Packet(long); !errors.Is(err, ErrBadCount) {
		t.Fatalf("overlong packet: %v", err)
	}
	bad := append([]byte{}, pkt...)
	bad[0], bad[1] = 0, 9
	if _, _, err := DecodeV5Packet(bad); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}
}

func TestEncodeLimits(t *testing.T) {
	recs := make([]Flow, V5MaxRecordsPerPacket+1)
	if _, err := EncodeV5Packet(V5Header{}, recs); err == nil {
		t.Fatal("oversized batch accepted")
	}
	big := v5Flow(0)
	big.Bytes = 1 << 33
	if _, err := EncodeV5Packet(V5Header{}, []Flow{big}); err == nil {
		t.Fatal("counter overflow accepted")
	}
}

func TestExporterBatching(t *testing.T) {
	e := NewV5Exporter(1, 100, nil)
	for i := 0; i < 65; i++ {
		if err := e.Add(v5Flow(i % 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	pkts := e.Drain()
	// 65 records = 2 full packets of 30 + 1 packet of 5.
	if len(pkts) != 3 {
		t.Fatalf("packets=%d, want 3", len(pkts))
	}
	h0, r0, _ := DecodeV5Packet(pkts[0])
	h2, r2, _ := DecodeV5Packet(pkts[2])
	if len(r0) != 30 || len(r2) != 5 {
		t.Fatalf("batch sizes %d/%d", len(r0), len(r2))
	}
	if h0.FlowSequence != 0 || h2.FlowSequence != 60 {
		t.Fatalf("sequences %d/%d", h0.FlowSequence, h2.FlowSequence)
	}
	// Drain clears.
	if len(e.Drain()) != 0 {
		t.Fatal("drain did not clear")
	}
	// Flush with nothing pending is a no-op.
	if err := e.Flush(); err != nil || len(e.Drain()) != 0 {
		t.Fatal("empty flush emitted a packet")
	}
}

func TestAppendPacketSharesArena(t *testing.T) {
	h := V5Header{EngineID: 2, SamplingInterval: 100}
	arena, err := AppendV5Packet(nil, h, []Flow{v5Flow(0), v5Flow(1)})
	if err != nil {
		t.Fatal(err)
	}
	first := len(arena)
	h.FlowSequence = 2
	arena, err = AppendV5Packet(arena, h, []Flow{v5Flow(2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(arena) != first+V5HeaderLen+V5RecordLen {
		t.Fatalf("arena length %d", len(arena))
	}
	// Both packets decode independently and identically to EncodeV5Packet.
	if _, recs, err := DecodeV5Packet(arena[:first]); err != nil || len(recs) != 2 || recs[1] != v5Flow(1) {
		t.Fatalf("first packet: %v %+v", err, recs)
	}
	h.FlowSequence = 2
	single, _ := EncodeV5Packet(h, []Flow{v5Flow(2)})
	if !bytes.Equal(arena[first:], single) {
		t.Fatal("appended packet differs from standalone encoding")
	}
	// An encode error leaves the arena exactly as it was.
	bad := v5Flow(0)
	bad.Bytes = 1 << 33
	out, err := AppendV5Packet(arena, h, []Flow{bad})
	if err == nil {
		t.Fatal("counter overflow accepted")
	}
	if len(out) != len(arena) {
		t.Fatalf("failed append left %d bytes, want %d", len(out), len(arena))
	}
}

func TestClockInHeaders(t *testing.T) {
	e := NewV5Exporter(1, 100, func() (uint32, uint32) { return 777, 1071000000 })
	_ = e.Add(v5Flow(0))
	_ = e.Flush()
	h, _, err := DecodeV5Packet(e.Drain()[0])
	if err != nil {
		t.Fatal(err)
	}
	if h.SysUptime != 777 || h.UnixSecs != 1071000000 {
		t.Fatalf("header clock %d/%d", h.SysUptime, h.UnixSecs)
	}
}

// Property: encode->decode is the identity for arbitrary valid records.
func TestPropRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0xdead))
		n := rng.IntN(V5MaxRecordsPerPacket + 1)
		recs := make([]Flow, n)
		for i := range recs {
			recs[i] = Flow{
				Key: flow.Key{
					Src:     ipaddr.Addr(rng.Uint32()),
					Dst:     ipaddr.Addr(rng.Uint32()),
					SrcPort: uint16(rng.UintN(65536)),
					DstPort: uint16(rng.UintN(65536)),
					Proto:   flow.Proto(rng.UintN(256)),
				},
				Packets:    uint64(rng.Uint32()),
				Bytes:      uint64(rng.Uint32()),
				First:      rng.Uint32(),
				Last:       rng.Uint32(),
				TCPFlags:   uint8(rng.UintN(256)),
				InputSNMP:  uint16(rng.UintN(65536)),
				OutputSNMP: uint16(rng.UintN(65536)),
				SrcAS:      uint16(rng.UintN(65536)),
				DstAS:      uint16(rng.UintN(65536)),
			}
		}
		h := V5Header{SysUptime: rng.Uint32(), UnixSecs: rng.Uint32(), FlowSequence: rng.Uint32(), EngineID: uint8(rng.UintN(256)), SamplingInterval: uint16(rng.UintN(1 << 14))}
		pkt, err := EncodeV5Packet(h, recs)
		if err != nil {
			return false
		}
		h2, recs2, err := DecodeV5Packet(pkt)
		if err != nil {
			return false
		}
		if h2.FlowSequence != h.FlowSequence || int(h2.Count) != n {
			return false
		}
		for i := range recs {
			if recs[i] != recs2[i] {
				return false
			}
		}
		// Re-encoding must be byte-identical (lossless).
		pkt2, err := EncodeV5Packet(h2, recs2)
		return err == nil && bytes.Equal(pkt, pkt2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: DecodeV5Packet never panics and never fabricates records on
// arbitrary input bytes — it either errors or returns exactly Count
// records.
func TestPropDecodeRobust(t *testing.T) {
	f := func(seed uint64, size uint16) bool {
		rng := rand.New(rand.NewPCG(seed, 0xF00D))
		buf := make([]byte, int(size)%2048)
		for i := range buf {
			buf[i] = byte(rng.UintN(256))
		}
		h, recs, err := DecodeV5Packet(buf)
		if err != nil {
			return recs == nil
		}
		return len(recs) == int(h.Count) && len(buf) == V5HeaderLen+int(h.Count)*V5RecordLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping the version field always yields ErrBadVersion, never
// a successful parse.
func TestPropDecodeVersionStrict(t *testing.T) {
	f := func(v uint16, seed uint64) bool {
		if v == V5Version {
			return true
		}
		pkt, err := EncodeV5Packet(V5Header{FlowSequence: uint32(seed % 1000)}, []Flow{v5Flow(int(seed % 7))})
		if err != nil {
			return false
		}
		pkt[0] = byte(v >> 8)
		pkt[1] = byte(v)
		_, _, err = DecodeV5Packet(pkt)
		return errors.Is(err, ErrBadVersion)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeHostileCount pins the untrusted-ingest guard: a header claiming
// more records than a v5 packet can carry is rejected before any record
// allocation, even when the buffer length is padded to match the claim.
func TestDecodeHostileCount(t *testing.T) {
	pkt, _ := EncodeV5Packet(V5Header{}, []Flow{v5Flow(0)})
	hostile := make([]byte, V5HeaderLen+(V5MaxRecordsPerPacket+1)*V5RecordLen)
	copy(hostile, pkt[:V5HeaderLen])
	binary.BigEndian.PutUint16(hostile[2:], V5MaxRecordsPerPacket+1)
	if _, _, err := DecodeV5Packet(hostile); !errors.Is(err, ErrBadCount) {
		t.Fatalf("hostile count accepted: %v", err)
	}
	// The absurd case: a 64KB-record claim in a minimal datagram must fail on
	// the count limit (not attempt a 3MB allocation and fail on length).
	tiny := make([]byte, V5HeaderLen)
	copy(tiny, pkt[:V5HeaderLen])
	binary.BigEndian.PutUint16(tiny[2:], 0xFFFF)
	if _, _, err := DecodeV5Packet(tiny); !errors.Is(err, ErrBadCount) {
		t.Fatalf("absurd count not rejected as bad count: %v", err)
	}
}

// TestDecodePacketAppendReuse checks the allocation-free collector path:
// decoding into a reused slice appends exactly the packet's records and
// leaves earlier contents intact.
func TestDecodePacketAppendReuse(t *testing.T) {
	pkt1, _ := EncodeV5Packet(V5Header{FlowSequence: 0}, []Flow{v5Flow(0), v5Flow(1)})
	pkt2, _ := EncodeV5Packet(V5Header{FlowSequence: 2}, []Flow{v5Flow(2)})
	var recs []Flow
	_, recs, err := DecodeV5PacketAppend(recs, pkt1)
	if err != nil {
		t.Fatal(err)
	}
	_, recs, err = DecodeV5PacketAppend(recs, pkt2)
	if err != nil {
		t.Fatal(err)
	}
	want := []Flow{v5Flow(0), v5Flow(1), v5Flow(2)}
	if len(recs) != len(want) {
		t.Fatalf("appended %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("record %d mismatch: %+v != %+v", i, recs[i], want[i])
		}
	}
	// Steady state: capacity suffices, so decoding must not allocate.
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeV5PacketAppend(recs[:0], pkt1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("DecodeV5PacketAppend allocates %v per packet at steady state", allocs)
	}
}

// FuzzDecodeV5 feeds arbitrary bytes to the packet decoder: it must
// never panic, never fabricate records, and every packet it does accept
// must re-encode to a packet that decodes to the identical header and
// records (the fields the codec models round-trip losslessly).
func FuzzDecodeV5(f *testing.F) {
	valid, _ := EncodeV5Packet(V5Header{SysUptime: 1, UnixSecs: 2, FlowSequence: 3, EngineID: 4, SamplingInterval: 100},
		[]Flow{v5Flow(0), v5Flow(1)})
	f.Add(valid)
	f.Add(valid[:V5HeaderLen])
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte{}, valid...), 0xFF))
	empty, _ := EncodeV5Packet(V5Header{}, nil)
	f.Add(empty)
	hostile := append([]byte{}, valid[:V5HeaderLen]...)
	binary.BigEndian.PutUint16(hostile[2:], 0xFFFF)
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, recs, err := DecodeV5Packet(data)
		if err != nil {
			return
		}
		if len(recs) != int(h.Count) || h.Count > V5MaxRecordsPerPacket {
			t.Fatalf("accepted packet with %d records for count %d", len(recs), h.Count)
		}
		if len(data) != V5HeaderLen+int(h.Count)*V5RecordLen {
			t.Fatalf("accepted %d-byte packet for count %d", len(data), h.Count)
		}
		out, err := EncodeV5Packet(h, recs)
		if err != nil {
			t.Fatalf("re-encode of accepted packet failed: %v", err)
		}
		h2, recs2, err := DecodeV5Packet(out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if h2 != h {
			t.Fatalf("header did not round-trip: %+v != %+v", h2, h)
		}
		for i := range recs {
			if recs2[i] != recs[i] {
				t.Fatalf("record %d did not round-trip: %+v != %+v", i, recs2[i], recs[i])
			}
		}
	})
}
