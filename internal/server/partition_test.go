package server

import (
	"testing"

	"netwide/internal/checkpoint"
	"netwide/internal/flowwire"
	"netwide/internal/ipaddr"
	"netwide/internal/routing"
	"netwide/internal/traffic"
)

// TestPartitionGates drives the ingest state machine directly — no
// goroutine, no socket, no detector — one row per gate outcome. Each row
// starts from a fresh partition, puts it in the row's state, feeds one
// batch against the row's observed watermark, and checks the action the
// driver is asked for and what the batch added to the books: the
// partition's mirrors and the daemon-wide counters must agree.
func TestPartitionGates(t *testing.T) {
	run := testRun(t)
	ds := run.Dataset()
	res, err := routing.BuildResolver(ds.Top, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var good []flowwire.Record
	for _, f := range collectRecords(t, run, 5) {
		good = append(good, flowwire.Record{Dst: f.Key.Dst, Bytes: f.Bytes, Packets: f.Packets, Flows: 1})
	}
	nowhere := ipaddr.FromOctets(255, 255, 255, 255)
	if _, ok := res.ResolveDst(nowhere); ok {
		t.Fatal("test address resolves; pick one outside every prefix")
	}
	lost := make([]flowwire.Record, len(good))
	for i := range lost {
		lost[i] = flowwire.Record{Dst: nowhere, Bytes: 1, Packets: 1, Flows: 1}
	}
	batch := func(engine uint32, seq uint32, bin int) flowwire.Batch {
		return flowwire.Batch{
			Format: flowwire.FormatNetFlowV5, Engine: engine,
			UnixSecs: uint32(bin * traffic.BinSeconds),
			Seq:      seq, SeqAdvance: uint32(len(good)), SeqModel: flowwire.SeqFlows,
		}
	}
	type books struct {
		records, duplicates, late, wild, unroutable uint64
		open                                        int64
	}
	booksOf := func(p *partition) books {
		return books{p.records.Load(), p.duplicates.Load(), p.lateRecords.Load(), p.wildRecords.Load(), p.unroutable.Load(), p.binsOpen.Load()}
	}
	globalOf := func(c *collector, p *partition) books {
		return books{c.ctr.records.Load(), c.ctr.duplicates.Load(), c.ctr.lateRecords.Load(), c.ctr.wildRecords.Load(), c.ctr.unroutable.Load(), p.binsOpen.Load()}
	}
	n := uint64(len(good))
	// stranded parks a partition where a far-future first packet leaves
	// it: watermark 1000, sealed through 999, nothing ever submitted.
	stranded := func(streak int) func(*partition) {
		return func(p *partition) {
			p.seal(999)
			p.behindStreak = streak
		}
	}
	cases := []struct {
		name    string
		prep    func(*partition)
		obs     int
		b       flowwire.Batch
		recs    []flowwire.Record
		act     action
		streak  int
		added   books
		maxOpen int
	}{
		{name: "raise", obs: -1, b: batch(0, 0, 3), recs: good, act: actRaise, added: books{records: n, open: 1}},
		{name: "accept below the watermark", obs: 5, b: batch(0, 0, 3), recs: good, added: books{records: n, open: 1}},
		{name: "duplicate", prep: func(p *partition) { p.ingest(batch(0, 0, 3), good, 3) },
			obs: 3, b: batch(0, 0, 3), recs: good, added: books{duplicates: 1}},
		{name: "pre-epoch", prep: func(p *partition) { p.cfg.Epoch = 10 * traffic.BinSeconds },
			obs: -1, b: batch(0, 0, 3), recs: good, added: books{late: n}},
		{name: "late", prep: func(p *partition) { p.seal(5) }, obs: 6, b: batch(0, 0, 5), recs: good, added: books{late: n}},
		{name: "wild beyond MaxAhead", obs: 10, b: batch(0, 0, 10+65), recs: good, added: books{wild: n}},
		{name: "MaxOpenBins overflow", prep: func(p *partition) { p.ingest(batch(0, 0, 3), good, 3) }, maxOpen: 1,
			obs: 3, b: batch(0, uint32(n), 4), recs: good, added: books{wild: n}},
		{name: "unroutable engine", obs: -1, b: batch(200, 0, 3), recs: good, added: books{unroutable: n}},
		{name: "unroutable destination", obs: -1, b: batch(0, 0, 3), recs: lost, added: books{unroutable: n}},
		{name: "stranded streak below quorum", prep: stranded(watermarkQuorum - 2), obs: 1000,
			b: batch(0, 0, 7), recs: good, streak: watermarkQuorum - 1, added: books{late: n}},
		{name: "stranded streak at quorum", prep: stranded(watermarkQuorum - 1), obs: 1000,
			b: batch(0, 0, 7), recs: good, act: actStranded, added: books{late: n}},
		{name: "unroutable traffic does not vote", prep: stranded(watermarkQuorum - 1), obs: 1000,
			b: batch(200, 0, 7), recs: good, streak: watermarkQuorum - 1, added: books{late: n}},
		{name: "straggler behind a submitted bin does not vote", prep: func(p *partition) {
			stranded(watermarkQuorum - 1)(p)
			p.ctr.lastClosed.Store(500)
		}, obs: 1000, b: batch(0, 0, 7), recs: good, streak: watermarkQuorum - 1, added: books{late: n}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{MaxOpenBins: tc.maxOpen}.withDefaults()
			c := &collector{cfg: &cfg, top: ds.Top, res: res}
			c.ctr.lastClosed.Store(-1)
			p, err := c.newPartition(0, &checkpoint.ShardState{SealedThrough: -1})
			if err != nil {
				t.Fatal(err)
			}
			if tc.prep != nil {
				tc.prep(p)
			}
			before := booksOf(p)
			act, bin := p.ingest(tc.b, tc.recs, tc.obs)
			if act != tc.act {
				t.Errorf("action %d, want %d", act, tc.act)
			}
			if want := int(tc.b.UnixSecs) / traffic.BinSeconds; act != actNone && bin != want {
				t.Errorf("action names bin %d, want %d", bin, want)
			}
			if p.behindStreak != tc.streak {
				t.Errorf("streak %d, want %d", p.behindStreak, tc.streak)
			}
			after := booksOf(p)
			added := books{
				after.records - before.records, after.duplicates - before.duplicates, after.late - before.late,
				after.wild - before.wild, after.unroutable - before.unroutable, after.open - before.open,
			}
			if added != tc.added {
				t.Errorf("books moved by %+v, want %+v", added, tc.added)
			}
			if g := globalOf(c, p); g != after {
				t.Errorf("daemon-wide counters %+v disagree with the partition's %+v", g, after)
			}
		})
	}
}

// TestPartitionSealAndDiscard pins the two driver-side transitions: seal
// detaches in bin order and moves the seal point even over bins nothing
// filled; discard drops the far bins as wild and rewinds the seal point to
// the last submitted bin.
func TestPartitionSealAndDiscard(t *testing.T) {
	run := testRun(t)
	ds := run.Dataset()
	res, err := routing.BuildResolver(ds.Top, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}.withDefaults()
	c := &collector{cfg: &cfg, top: ds.Top, res: res}
	c.ctr.lastClosed.Store(-1)
	p, err := c.newPartition(0, &checkpoint.ShardState{SealedThrough: -1})
	if err != nil {
		t.Fatal(err)
	}
	var recs []flowwire.Record
	for _, f := range collectRecords(t, run, 3) {
		recs = append(recs, flowwire.Record{Dst: f.Key.Dst, Bytes: f.Bytes, Packets: f.Packets, Flows: 1})
	}
	for i, bin := range []int{4, 2, 9, 300} {
		b := flowwire.Batch{Format: flowwire.FormatNetFlowV5, UnixSecs: uint32(bin * traffic.BinSeconds),
			Seq: uint32(i * len(recs)), SeqAdvance: uint32(len(recs)), SeqModel: flowwire.SeqFlows}
		p.ingest(b, recs, -1)
	}
	closed := p.seal(6)
	if len(closed) != 2 || closed[0].bin != 2 || closed[1].bin != 4 || p.closedThrough != 6 {
		t.Fatalf("seal(6) detached %v through %d, want bins 2 and 4 through 6", closed, p.closedThrough)
	}
	p.seal(3)
	if p.closedThrough != 6 {
		t.Fatalf("a lower seal moved the seal point back to %d", p.closedThrough)
	}
	c.ctr.lastClosed.Store(4)
	p.discard(100)
	if len(p.bins) != 1 || p.bins[9] == nil || p.closedThrough != 4 || p.wildRecords.Load() != uint64(len(recs)) {
		t.Fatalf("discard(100) left bins %v sealed through %d with %d wild, want bin 9 sealed through 4 and bin 300's %d records wild",
			p.bins, p.closedThrough, p.wildRecords.Load(), len(recs))
	}
	if st := p.state(); st.SealedThrough != 4 || len(st.OpenBins) != 1 || st.OpenBins[0].Bin != 9 || len(st.Engines) != 1 {
		t.Fatalf("state %+v, want bin 9 open behind seal 4 and engine 0's cursor", st)
	}
}
