package server

import (
	"testing"

	"netwide/internal/checkpoint"
	"netwide/internal/flowwire"
	"netwide/internal/routing"
)

// vouchStep is one datagram of a vouching scenario and the seal point and
// late records it must leave behind.
type vouchStep struct {
	engine   uint8
	seq      uint32
	bin      int
	sealed   int
	lateRecs uint64
}

// trackVouched gives the collector a routed stream key that has vouched
// for every bin below f.
func trackVouched(c *collector, key engineKey, f int) {
	e := &engineSeq{started: true}
	c.seq[key] = e
	c.route(e)
	c.vouch(e, f)
}

// TestVouchedFrontiers pins the early seal, one scenario per rule, at
// Grace 4 so that the grace rule alone (seal through watermark − 4) stays
// visibly behind: once armed, a bin closes once every tracked export
// stream has sent an in-order datagram past it; a stream's first datagram,
// a datagram behind its cursor or one with loss outstanding vouches for
// nothing, and loss stops being outstanding once the grace rule has sealed
// the bin it was found at; a stream no PoP owns never counts; a restart,
// a watermark reset and a restore forget what was vouched; and a datagram
// stamped in a bin every tracked stream has passed is late, from the
// stream itself or from a stream never seen before. The early seal arms
// once the grace rule has sealed a bin on its own; all but the first
// scenario start armed.
func TestVouchedFrontiers(t *testing.T) {
	run := testRun(t)
	ds := run.Dataset()
	res, err := routing.BuildResolver(ds.Top, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := collectRecords(t, run, 10)
	n := uint64(len(recs))
	newColl := func(t *testing.T, sv *checkpoint.ServerState, armed bool) *collector {
		cfg := Config{Grace: 4}.withDefaults()
		c, err := newCollector(&cfg, ds.Top, res, sv)
		if err != nil {
			t.Fatal(err)
		}
		c.armed = armed // as after the grace rule's first seal
		return c
	}
	cases := []struct {
		name  string
		armed bool
		steps []vouchStep
	}{
		{"the grace rule's first seal arms the early seal", false, []vouchStep{
			{0, 0, 0, -1, 0}, {1, 0, 0, -1, 0}, {0, 10, 1, -1, 0}, {1, 10, 1, -1, 0},
			{0, 20, 3, -1, 0}, {1, 20, 3, -1, 0},
			{0, 30, 4, 2, 0}, // the grace rule would seal bin 0, which arms the early seal
			{1, 30, 4, 3, 0},
		}},
		{"every stream passed the bin", true, []vouchStep{
			{0, 0, 0, -1, 0}, {1, 0, 0, -1, 0}, // first datagrams vouch for nothing
			{0, 10, 1, -1, 0}, // engine 1 has not passed bin 0
			{1, 10, 1, 0, 0},
			{1, 20, 3, 0, 0}, {0, 20, 2, 1, 0}, {0, 30, 3, 2, 0},
		}},
		{"a first datagram vouches for nothing", true, []vouchStep{
			{0, 0, 0, -1, 0}, {0, 10, 5, 4, 0}, // the one tracked stream has passed bins 0-4
			{1, 0, 6, 4, 0}, // engine 1's first datagram: tracked, but it vouches for nothing
			{0, 20, 6, 4, 0}, {1, 10, 6, 5, 0},
		}},
		{"loss outstanding blocks the vouch until refunded", true, []vouchStep{
			{0, 0, 0, -1, 0}, {0, 20, 1, -1, 0}, // records 10-19 charged lost
			{0, 10, 1, -1, 0}, // the reorder refunds them, but sits behind the cursor
			{0, 30, 2, 1, 0},
		}},
		{"a gap never filled blocks until the grace rule", true, []vouchStep{
			{0, 0, 0, -1, 0}, {0, 20, 1, -1, 0}, {0, 30, 2, -1, 0}, {0, 40, 5, 1, 0},
			// The grace rule sealed bin 1, where the gap was found: the loss
			// is gone for good, and the stream vouches again.
			{0, 50, 6, 5, 0},
		}},
		{"loss found later moves the bin the grace rule must seal", true, []vouchStep{
			{0, 0, 0, -1, 0}, {0, 20, 1, -1, 0}, {0, 40, 3, -1, 0}, // gaps found at bins 1 and 3
			{0, 50, 5, 1, 0}, {0, 60, 6, 2, 0}, // bin 3 not sealed yet: no vouch
			{0, 70, 7, 3, 0}, {0, 80, 8, 7, 0}, // sealed through 3: the next in-order datagram vouches
		}},
		{"a stream no PoP owns never holds the seal", true, []vouchStep{
			{0, 0, 0, -1, 0}, {1, 0, 0, -1, 0}, {0, 10, 1, -1, 0}, {1, 10, 1, 0, 0},
			{200, 0, 1, 0, 0}, // one spoofed datagram, from an engine past the PoPs: unroutable
			{0, 20, 2, 0, 0}, {1, 20, 2, 1, 0}, {0, 30, 3, 1, 0}, {1, 30, 3, 2, 0},
		}},
		{"a restart forgets the frontier", true, []vouchStep{
			{0, 0, 0, -1, 0}, {0, 10, 1, 0, 0},
			{0, 3_000_000_000, 2, 0, 0}, // restart: its first datagram again
			{0, 3_000_000_010, 3, 2, 0},
		}},
		{"a stream's own passed bin is late", true, []vouchStep{
			{0, 0, 0, -1, 0}, {0, 10, 1, 0, 0}, {0, 20, 2, 1, 0},
			{0, 30, 1, 1, n}, // in sequence, but engine 0 has passed bin 1
		}},
		{"a never-seen stream's passed bin is late", true, []vouchStep{
			{0, 0, 0, -1, 0}, {1, 0, 0, -1, 0}, {0, 10, 3, -1, 0}, {1, 10, 3, 2, 0},
			{2, 0, 1, 2, n}, // engine 2 is new and now tracked: nothing more closes early
			{0, 20, 4, 2, 0}, {1, 20, 4, 2, 0}, {2, 10, 4, 3, 0},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newColl(t, nil, tc.armed)
			for i, s := range tc.steps {
				late := c.ctr.lateRecords.Load()
				c.ingest(enginePkt(t, s.engine, s.seq, s.bin, recs))
				if c.sealedThrough != s.sealed || c.ctr.lateRecords.Load()-late != s.lateRecs {
					t.Fatalf("step %d (engine %d seq %d bin %d): sealed through %d with %d late, want %d with %d",
						i, s.engine, s.seq, s.bin, c.sealedThrough, c.ctr.lateRecords.Load()-late, s.sealed, s.lateRecs)
				}
			}
		})
	}

	// A restore forgets every frontier: the restored cursors vouch again
	// from their next in-order datagram, each of them, and count toward the
	// early seal once they deliver again (until the grace rule first seals
	// after the restart, the early seal is off anyway).
	t.Run("a restore forgets the frontiers", func(t *testing.T) {
		c := newColl(t, nil, true)
		for _, s := range []vouchStep{{0, 0, 0, -1, 0}, {1, 0, 0, -1, 0}, {0, 10, 3, -1, 0}, {1, 10, 3, 2, 0}} {
			c.ingest(enginePkt(t, s.engine, s.seq, s.bin, recs))
		}
		if c.sealedThrough != 2 {
			t.Fatalf("sealed through %d before the restore, want 2", c.sealedThrough)
		}
		sv := c.state()
		r := newColl(t, &sv, true)
		for i, s := range []vouchStep{
			{1, 20, 3, 2, 0}, // engine 1 vouches for bin 3 again
			{0, 20, 4, 2, 0}, // engine 0 for bin 4; engine 1 holds bin 3
			{1, 30, 4, 3, 0},
		} {
			r.ingest(enginePkt(t, s.engine, s.seq, s.bin, recs))
			if r.sealedThrough != s.sealed {
				t.Fatalf("restored step %d (engine %d bin %d): sealed through %d, want %d", i, s.engine, s.bin, r.sealedThrough, s.sealed)
			}
		}
	})

	// Loss a restored cursor carries was found at or below the restored
	// watermark: the stream vouches again once the grace rule has sealed
	// through it.
	t.Run("restored loss blocks until the restored watermark is sealed", func(t *testing.T) {
		c := newColl(t, nil, true)
		for _, s := range []vouchStep{{0, 0, 0, -1, 0}, {0, 20, 3, -1, 0}} { // records 10-19 lost
			c.ingest(enginePkt(t, s.engine, s.seq, s.bin, recs))
		}
		sv := c.state()
		if sv.Engines[0].Charged == 0 || sv.Watermark != 3 {
			t.Fatalf("the snapshot carries charge %d at watermark %d, want a charge at 3", sv.Engines[0].Charged, sv.Watermark)
		}
		r := newColl(t, &sv, true)
		for i, s := range []vouchStep{
			{0, 30, 4, 0, 0}, {0, 40, 6, 2, 0}, // bin 3 not sealed yet: no vouch
			{0, 50, 7, 3, 0}, {0, 60, 8, 7, 0}, // sealed through 3: the stream vouches again
		} {
			r.ingest(enginePkt(t, s.engine, s.seq, s.bin, recs))
			if r.sealedThrough != s.sealed {
				t.Fatalf("restored step %d (bin %d): sealed through %d, want %d", i, s.bin, r.sealedThrough, s.sealed)
			}
		}
	})

	// A watermark reset forgets every frontier: each was vouched against
	// the stranded watermark.
	t.Run("a watermark reset forgets the frontiers", func(t *testing.T) {
		c := newColl(t, nil, true)
		c.ingest(enginePkt(t, 0, 0, 0, recs))
		c.ingest(enginePkt(t, 1, 0, 0, recs))
		c.ingest(enginePkt(t, 0, 10, 1, recs)) // engine 0 vouches for bin 1
		if c.sealedThrough != -1 || c.nPassed != 1 {
			t.Fatalf("sealed through %d with %d streams passed, want -1 and 1", c.sealedThrough, c.nPassed)
		}
		c.reset(1)
		if c.nPassed != 0 || len(c.passed) != 0 || c.frontier(c.seq[engineKey{flowwire.FormatNetFlowV5, 0}]) != noFrontier {
			t.Fatalf("reset kept %d passed streams (%v)", c.nPassed, c.passed)
		}
	})

	// A stream without a cursor cannot vouch, so it turns the early seal
	// off: here the stream one past maxEngineCursors.
	t.Run("an untracked stream turns the early seal off", func(t *testing.T) {
		c := newColl(t, nil, true)
		for id := uint32(0); len(c.seq) < maxEngineCursors-1; id++ {
			trackVouched(c, engineKey{flowwire.FormatIPFIX, id}, 1<<20)
		}
		c.ingest(enginePkt(t, 0, 0, 0, recs))
		c.ingest(enginePkt(t, 0, 10, 1, recs))
		if c.sealedThrough != 0 {
			t.Fatalf("sealed through %d with every tracked stream past bin 0, want 0", c.sealedThrough)
		}
		c.ingest(enginePkt(t, 1, 0, 1, recs)) // the cursor map is full: untracked
		c.ingest(enginePkt(t, 0, 20, 2, recs))
		if !c.untracked || c.sealedThrough != 0 || len(c.seq) != maxEngineCursors {
			t.Fatalf("untracked %v, sealed through %d with %d cursors; want the early seal off at 0", c.untracked, c.sealedThrough, len(c.seq))
		}
	})
}
