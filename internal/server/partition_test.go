package server

import (
	"testing"

	"netwide/internal/flowwire"
	"netwide/internal/ipaddr"
	"netwide/internal/routing"
	"netwide/internal/traffic"
)

// TestPartitionGates drives the ingest state machine directly — no
// goroutine, no socket, no detector — one row per gate outcome. Each row
// starts from a fresh collector, puts it in the row's state, feeds one
// batch against the row's watermark, and checks the action the collector
// is asked for and what the batch added to the books.
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
	booksOf := func(c *collector) books {
		return books{c.ctr.records.Load(), c.ctr.duplicates.Load(), c.ctr.lateRecords.Load(), c.ctr.wildRecords.Load(), c.ctr.unroutable.Load(), c.ctr.binsOpen.Load()}
	}
	n := uint64(len(good))
	// stranded parks a collector where a far-future first packet leaves
	// it: sealed through 999, nothing ever submitted.
	stranded := func(streak int) func(*collector) {
		return func(c *collector) {
			c.closeThrough(999)
			c.behindStreak = streak
		}
	}
	cases := []struct {
		name    string
		prep    func(*collector)
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
		{name: "duplicate", prep: func(c *collector) { c.gate(batch(0, 0, 3), good) },
			obs: 3, b: batch(0, 0, 3), recs: good, added: books{duplicates: 1}},
		{name: "pre-epoch", prep: func(c *collector) { c.cfg.Epoch = 10 * traffic.BinSeconds },
			obs: -1, b: batch(0, 0, 3), recs: good, added: books{late: n}},
		{name: "late", prep: func(c *collector) { c.closeThrough(5) }, obs: 6, b: batch(0, 0, 5), recs: good, added: books{late: n}},
		{name: "wild beyond MaxAhead", obs: 10, b: batch(0, 0, 10+65), recs: good, added: books{wild: n}},
		{name: "MaxOpenBins overflow", prep: func(c *collector) { c.gate(batch(0, 0, 3), good) }, maxOpen: 1,
			obs: 3, b: batch(0, uint32(n), 4), recs: good, added: books{wild: n}},
		{name: "unroutable engine", obs: -1, b: batch(200, 0, 3), recs: good, added: books{unroutable: n}},
		{name: "unroutable destination", obs: -1, b: batch(0, 0, 3), recs: lost, added: books{unroutable: n}},
		{name: "stranded streak below quorum", prep: stranded(watermarkQuorum - 2), obs: 1000,
			b: batch(0, 0, 7), recs: good, streak: watermarkQuorum - 1, added: books{late: n}},
		{name: "stranded streak at quorum", prep: stranded(watermarkQuorum - 1), obs: 1000,
			b: batch(0, 0, 7), recs: good, act: actStranded, added: books{late: n}},
		{name: "unroutable traffic does not vote", prep: stranded(watermarkQuorum - 1), obs: 1000,
			b: batch(200, 0, 7), recs: good, streak: watermarkQuorum - 1, added: books{late: n}},
		{name: "straggler behind a submitted bin does not vote", prep: func(c *collector) {
			stranded(watermarkQuorum - 1)(c)
			c.ctr.lastClosed.Store(500)
		}, obs: 1000, b: batch(0, 0, 7), recs: good, streak: watermarkQuorum - 1, added: books{late: n}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{MaxOpenBins: tc.maxOpen}.withDefaults()
			c, err := newCollector(&cfg, ds.Top, res, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.prep != nil {
				tc.prep(c)
			}
			c.ctr.watermark.Store(int64(tc.obs))
			before := booksOf(c)
			act, bin := c.gate(tc.b, tc.recs)
			if act != tc.act {
				t.Errorf("action %d, want %d", act, tc.act)
			}
			if want := int(tc.b.UnixSecs) / traffic.BinSeconds; act != actNone && bin != want {
				t.Errorf("action names bin %d, want %d", bin, want)
			}
			if c.behindStreak != tc.streak {
				t.Errorf("streak %d, want %d", c.behindStreak, tc.streak)
			}
			after := booksOf(c)
			added := books{
				after.records - before.records, after.duplicates - before.duplicates, after.late - before.late,
				after.wild - before.wild, after.unroutable - before.unroutable, after.open - before.open,
			}
			if added != tc.added {
				t.Errorf("books moved by %+v, want %+v", added, tc.added)
			}
		})
	}
}

// TestPartitionSealAndDiscard pins the two collector-side transitions:
// closeThrough detaches in bin order and moves the seal point even over
// bins nothing filled; reset drops the far bins as wild and rewinds the
// seal point to the last submitted bin.
func TestPartitionSealAndDiscard(t *testing.T) {
	run := testRun(t)
	ds := run.Dataset()
	res, err := routing.BuildResolver(ds.Top, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}.withDefaults()
	c, err := newCollector(&cfg, ds.Top, res, nil)
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
		c.gate(b, recs)
	}
	closed := c.closeThrough(6)
	if len(closed) != 2 || closed[0].bin != 2 || closed[1].bin != 4 || c.sealedThrough != 6 || c.ctr.lastClosed.Load() != 4 {
		t.Fatalf("closeThrough(6) detached %v through %d, last closed %d; want bins 2 and 4 through 6, last closed 4",
			closed, c.sealedThrough, c.ctr.lastClosed.Load())
	}
	c.closeThrough(3)
	if c.sealedThrough != 6 {
		t.Fatalf("a lower seal moved the seal point back to %d", c.sealedThrough)
	}
	c.reset(100 - cfg.MaxAhead)
	if len(c.bins) != 1 || c.bins[9] == nil || c.sealedThrough != 4 || c.ctr.wildRecords.Load() != uint64(len(recs)) {
		t.Fatalf("reset left bins %v sealed through %d with %d wild, want bin 9 sealed through 4 and bin 300's %d records wild",
			c.bins, c.sealedThrough, c.ctr.wildRecords.Load(), len(recs))
	}
	if st := c.state(); st.SealedThrough != 4 || len(st.OpenBins) != 1 || st.OpenBins[0].Bin != 9 || len(st.Engines) != 1 {
		t.Fatalf("state %+v, want bin 9 open behind seal 4 and engine 0's cursor", st)
	}
}
