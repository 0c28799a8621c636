package server

import (
	"math/rand"
	"slices"
	"testing"

	"netwide/internal/flowwire"
	"netwide/internal/ipaddr"
	"netwide/internal/routing"
	"netwide/internal/topology"
	"netwide/internal/traffic"
)

// collectorSeq is one seeded datagram sequence for the collector model
// test, with what the generator knows about it.
type collectorSeq struct {
	pkts [][]byte
	// bad and dups count the datagrams made undecodable and the exact
	// replays of an earlier datagram of the same engine.
	bad, dups uint64
}

// genCollectorSeq builds a random v5 datagram sequence over nEngines export
// engines: in-order traffic whose bin advances now and then, adjacent
// swaps (reordering within a bin or two), exact duplicates, late and
// pre-epoch stamps, unroutable engines and destinations, undecodable
// bytes, and — unless clean — far-future stamps, with the first datagram
// among them when stranded.
func genCollectorSeq(rng *rand.Rand, recs []flowwire.Flow, nEngines int, cfg *Config, clean, stranded bool) collectorSeq {
	nowhere := ipaddr.FromOctets(255, 255, 255, 255)
	next := map[uint8]uint32{}
	sentBy := map[uint8][][]byte{}
	stamp := func(bin int) uint32 { return cfg.Epoch + uint32(bin*traffic.BinSeconds) }
	encode := func(engine uint8, unixSecs uint32, rs []flowwire.Flow) []byte {
		p, err := flowwire.EncodeV5Packet(flowwire.V5Header{UnixSecs: unixSecs, FlowSequence: next[engine], EngineID: engine}, rs)
		if err != nil {
			panic(err)
		}
		next[engine] += uint32(len(rs))
		sentBy[engine] = append(sentBy[engine], p)
		return p
	}
	var seq collectorSeq
	if stranded {
		seq.pkts = append(seq.pkts, encode(0, stamp(cfg.MaxAhead+200), recs[:3]))
	}
	cur := 0
	for len(seq.pkts) < 160 {
		engine := uint8(rng.Intn(nEngines))
		rs := recs[:1+rng.Intn(len(recs))]
		if rng.Intn(4) == 0 {
			cur++
		}
		switch k := rng.Intn(20); {
		case k == 0 && len(sentBy[engine]) > 0: // exact replay of a recent datagram
			sent := sentBy[engine]
			seq.pkts = append(seq.pkts, sent[max(0, len(sent)-1-rng.Intn(8))])
			seq.dups++
		case k == 1: // late
			seq.pkts = append(seq.pkts, encode(engine, stamp(max(0, cur-cfg.Grace-1-rng.Intn(4))), rs))
		case k == 2: // pre-epoch
			seq.pkts = append(seq.pkts, encode(engine, cfg.Epoch-1-uint32(rng.Intn(traffic.BinSeconds)), rs))
		case k == 3: // unroutable engine: no such PoP
			seq.pkts = append(seq.pkts, encode(uint8(200+rng.Intn(50)), stamp(cur), rs))
		case k == 4: // some destinations resolve nowhere
			mixed := slices.Clone(rs)
			for i := range mixed {
				if rng.Intn(2) == 0 {
					mixed[i].Key.Dst = nowhere
				}
			}
			seq.pkts = append(seq.pkts, encode(engine, stamp(cur), mixed))
		case k == 5: // undecodable: a truncated datagram or random bytes
			p := encode(engine, stamp(cur), rs)
			next[engine] -= uint32(len(rs)) // never arrives whole
			sentBy[engine] = sentBy[engine][:len(sentBy[engine])-1]
			if rng.Intn(2) == 0 {
				p = p[:1+rng.Intn(len(p)-1)]
			} else {
				p = make([]byte, 2+rng.Intn(64))
				rng.Read(p)
				p[0], p[1] = 0xEE, 0xEE // a version word no format claims
			}
			seq.pkts = append(seq.pkts, p)
			seq.bad++
		case k == 6 && !clean: // far future
			seq.pkts = append(seq.pkts, encode(engine, stamp(cur+cfg.MaxAhead+1+rng.Intn(100)), rs))
		default:
			seq.pkts = append(seq.pkts, encode(engine, stamp(cur), rs))
		}
		// Reorder: a swap never changes how many replays arrive second.
		if n := len(seq.pkts); n > 2 && rng.Intn(6) == 0 {
			seq.pkts[n-1], seq.pkts[n-2] = seq.pkts[n-2], seq.pkts[n-1]
		}
	}
	return seq
}

// emitted is one bin the collector returned, as the detector would see it.
type emitted struct {
	bin                   int
	bytes, packets, flows []float64
	records               uint64
}

// driveCollector feeds seq to a fresh collector and checks the
// conservation invariants and the daemon-wide caps after every datagram.
// It returns every bin emitted (the drain's flush included), the collector
// and the most bins it ever held open.
func driveCollector(t *testing.T, cfg Config, top *topology.Topology, res *routing.Resolver, seq collectorSeq) ([]emitted, *collector, int) {
	t.Helper()
	c, err := newCollector(&cfg, top, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	books := func() uint64 {
		return c.ctr.records.Load() + c.ctr.lateRecords.Load() + c.ctr.wildRecords.Load() + c.ctr.unroutable.Load()
	}
	var (
		out                    []emitted
		bad, dups, binned      uint64
		discarded, emittedRecs uint64
	)
	take := func(closed []submittedBin) {
		for _, sb := range closed {
			if len(out) > 0 && sb.bin <= out[len(out)-1].bin {
				t.Fatalf("bin %d emitted after bin %d", sb.bin, out[len(out)-1].bin)
			}
			var flows float64
			for _, f := range sb.acc.flows {
				flows += f
			}
			if flows != float64(sb.acc.records) {
				t.Fatalf("bin %d carries %v flows for %d records", sb.bin, flows, sb.acc.records)
			}
			out = append(out, emitted{sb.bin, sb.acc.bytes, sb.acc.packets, sb.acc.flows, sb.acc.records})
			emittedRecs += sb.acc.records
		}
	}
	maxOpen := 0
	check := func(i int) {
		if len(c.bins) > cfg.MaxOpenBins || len(c.seq) > maxEngineCursors {
			t.Fatalf("datagram %d: %d bins open and %d engine cursors, caps %d and %d", i, len(c.bins), len(c.seq), cfg.MaxOpenBins, maxEngineCursors)
		}
		maxOpen = max(maxOpen, len(c.bins))
		var open uint64
		for _, acc := range c.bins {
			open += acc.records
		}
		if accepted := c.ctr.records.Load(); emittedRecs+open != accepted-discarded {
			t.Fatalf("datagram %d: %d records emitted + %d open, want the %d accepted less %d discarded", i, emittedRecs, open, accepted, discarded)
		}
	}
	for i, pkt := range seq.pkts {
		before, badBefore, dupBefore, resets, wild := books(), c.ctr.badPackets.Load(), c.ctr.duplicates.Load(), c.ctr.watermarkResets.Load(), c.ctr.wildRecords.Load()
		take(c.ingest(pkt))
		var drop uint64
		if c.ctr.watermarkResets.Load() != resets {
			drop = c.ctr.wildRecords.Load() - wild // the reset's discard
			discarded += drop
		}
		var want uint64 // records to book: those of a binned datagram
		switch {
		case c.ctr.badPackets.Load() != badBefore:
			bad++
		case c.ctr.duplicates.Load() != dupBefore:
			dups++
		default:
			binned++
			_, flows, err := flowwire.DecodeV5Packet(pkt)
			if err != nil {
				t.Fatalf("datagram %d decoded in the collector but not alone: %v", i, err)
			}
			want = uint64(len(flows))
		}
		if moved := books() - before - drop; moved != want {
			t.Fatalf("datagram %d: %d records booked, want %d — each record of a binned datagram exactly once", i, moved, want)
		}
		check(i)
	}
	take(c.flush())
	check(len(seq.pkts))
	if c.ctr.packets.Load() != uint64(len(seq.pkts)) || c.ctr.packets.Load() != bad+dups+binned {
		t.Fatalf("%d packets counted, fed %d = %d bad + %d duplicates + %d binned", c.ctr.packets.Load(), len(seq.pkts), bad, dups, binned)
	}
	if c.ctr.badPackets.Load() != bad || bad != seq.bad || c.ctr.duplicates.Load() != dups || dups != seq.dups {
		t.Fatalf("bad %d (counted %d, made %d), duplicates %d (counted %d, made %d)",
			bad, c.ctr.badPackets.Load(), seq.bad, dups, c.ctr.duplicates.Load(), seq.dups)
	}
	return out, c, maxOpen
}

// TestCollectorConservation drives the collector alone — no Server,
// detector or socket — with seeded random datagram sequences over every
// export engine, checking flow conservation after every datagram: packets
// are bad, duplicate or binned; every record of a binned datagram is booked
// once (accepted, late, wild or unroutable); the records in emitted bins
// plus those still open are the accepted ones less what a watermark reset
// discarded; emitted bins strictly ascend; and the open bins and engine
// cursors stay within MaxOpenBins and maxEngineCursors across the daemon.
// A third of the sequences run under a MaxOpenBins of 2, which they reach.
func TestCollectorConservation(t *testing.T) {
	run := testRun(t)
	ds := run.Dataset()
	res, err := routing.BuildResolver(ds.Top, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := collectRecords(t, run, 6)
	var seen counters // what the runs booked, summed over seeds
	capReached := false
	for seed := int64(0); seed < 30; seed++ {
		clean, stranded := seed%3 == 0, seed%3 == 1 && seed%2 == 0
		cfg := Config{Epoch: 10 * traffic.BinSeconds, Grace: 1 + int(seed%3), MaxAhead: 16}
		if seed%3 == 2 {
			cfg.MaxOpenBins = 2
		}
		cfg = cfg.withDefaults()
		seq := genCollectorSeq(rand.New(rand.NewSource(seed)), recs, ds.Top.NumPoPs(), &cfg, clean, stranded)
		got, col, maxOpen := driveCollector(t, cfg, ds.Top, res, seq)
		capReached = capReached || maxOpen == cfg.MaxOpenBins
		c := &col.ctr
		seen.lateRecords.Add(c.lateRecords.Load())
		seen.wildRecords.Add(c.wildRecords.Load())
		seen.unroutable.Add(c.unroutable.Load())
		seen.duplicates.Add(c.duplicates.Load())
		seen.badPackets.Add(c.badPackets.Load())
		seen.watermarkResets.Add(c.watermarkResets.Load())
		if stranded && c.watermarkResets.Load() == 0 {
			t.Fatalf("seed %d: the far-future first datagram never stranded the watermark", seed)
		}
		if clean && (c.wildRecords.Load() != 0 || c.watermarkResets.Load() != 0 || len(got) == 0) {
			t.Fatalf("seed %d: a sequence with no far-future stamp booked wild records or a reset, or closed nothing", seed)
		}
	}
	if !capReached {
		t.Fatal("no sequence ever held MaxOpenBins bins open: the cap check is vacuous")
	}
	if seen.lateRecords.Load() == 0 || seen.wildRecords.Load() == 0 || seen.unroutable.Load() == 0 ||
		seen.duplicates.Load() == 0 || seen.badPackets.Load() == 0 || seen.watermarkResets.Load() == 0 {
		t.Fatalf("the sequences never reached some outcome: late %d, wild %d, unroutable %d, duplicates %d, bad %d, resets %d",
			seen.lateRecords.Load(), seen.wildRecords.Load(), seen.unroutable.Load(),
			seen.duplicates.Load(), seen.badPackets.Load(), seen.watermarkResets.Load())
	}
}
