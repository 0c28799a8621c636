package server

// skew_test.go replays datasets with one export engine running bins behind
// the rest (ReplayConfig.Lag): in process through the collector alone,
// where every datagram's effect on the seal point is checked, and over
// loopback into a whole daemon.

import (
	"context"
	"testing"
	"time"

	"netwide"
	"netwide/internal/dataset"
	"netwide/internal/flowwire"
	"netwide/internal/topology"
	"netwide/internal/traffic"
)

// laggardRecords counts the records the highest PoP's export engine — the
// one a lagged replay holds back — exports in bins [from, to).
func laggardRecords(ds *dataset.Dataset, from, to int) uint64 {
	laggard := topology.PoP(ds.Top.NumPoPs() - 1)
	var n uint64
	for i := 0; i < ds.Top.NumODPairs(); i++ {
		od := ds.Top.ODAt(i)
		if od.Origin != laggard {
			continue
		}
		for bin := from; bin < to; bin++ {
			ds.ForEachResolvedRecord(od, bin, func(topology.ODPair, flowwire.Flow) { n++ })
		}
	}
	return n
}

// TestSkewedReplayInProcess feeds lagged replays straight to a collector.
// While the laggard runs fewer bins behind than Grace, nothing is late and,
// once the early seal is armed, each of its datagrams after its first
// closes exactly the bins below its own: the bin it sends is the lowest
// any engine has not passed. Once it
// runs Grace or more bins behind, the grace rule closes its bins first, and
// exactly its records stamped through the last bin's Grace-th predecessor
// are booked late.
func TestSkewedReplayInProcess(t *testing.T) {
	run := testRun(t)
	ds := run.Dataset()
	const bins = 120
	for _, tc := range []struct {
		name       string
		lag, grace int
	}{
		{"lag 2 at grace 3", 2, 3},
		{"lag 2 at grace 8", 2, 8},
		{"lag 3 at grace 2", 3, 2},
		{"lag 2 at grace 2", 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Grace: tc.grace}.withDefaults()
			c, err := newCollector(&cfg, ds.Top, ds.Resolver(), nil)
			if err != nil {
				t.Fatal(err)
			}
			be, err := newBinExporters(ds, flowwire.FormatNetFlowV5)
			if err != nil {
				t.Fatal(err)
			}
			laggard := uint32(ds.Top.NumPoPs() - 1)
			records, err := be.schedule(0, bins, tc.lag, 0, func(p replayPacket) error {
				first := c.seq[engineKey{flowwire.FormatNetFlowV5, laggard}] == nil
				c.ingest(p.data)
				if p.engine == laggard && tc.lag < tc.grace && !first && c.armed && c.sealedThrough != p.bin-1 {
					t.Fatalf("the laggard's datagram for bin %d left the seal at %d, want %d", p.bin, c.sealedThrough, p.bin-1)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			var wantLate uint64
			if tc.lag >= tc.grace {
				wantLate = laggardRecords(ds, 0, bins-tc.grace)
			}
			books := c.ctr.records.Load() + c.ctr.lateRecords.Load()
			if c.ctr.lateRecords.Load() != wantLate || books != uint64(records) || c.ctr.lostRecords.Load() != 0 {
				t.Fatalf("%d accepted, %d late, %d lost of %d; want %d late", c.ctr.records.Load(), c.ctr.lateRecords.Load(),
					c.ctr.lostRecords.Load(), records, wantLate)
			}
			if tc.lag < tc.grace && c.sealedThrough != bins-2 {
				t.Fatalf("sealed through %d once the laggard sent its last bin, want %d", c.sealedThrough, bins-2)
			}
		})
	}
}

// TestEarlySealHoldsFewBins is where the early seal's gain lies: on a
// 23-engine (Géant) replay at Grace 48, every exporter passes a bin within
// a bin of sending it, so once the early seal is armed at most a few bins
// are open, where the grace rule alone holds Grace of them. The control
// leg adds one exporter that sends a single datagram of routable records
// and so never vouches — a NetFlow v5 engine 0 beside the IPFIX domains,
// a stream of its own: the early seal stays off, and the grace rule's wait
// is back. (An engine no PoP owns would not hold it: it never fills a
// bin.) Under -short the replay is Abilene's 11 engines.
func TestEarlySealHoldsFewBins(t *testing.T) {
	run := testRun(t)
	if !testing.Short() {
		cfg := netwide.QuickConfig()
		cfg.Topology, cfg.MeanRateBps = "geant", 4e5
		var err error
		if run, err = netwide.Simulate(cfg); err != nil {
			t.Fatal(err)
		}
	}
	ds := run.Dataset()
	const grace, bins = 48, 200
	peak := func(t *testing.T, silent bool) int {
		cfg := Config{Grace: grace}.withDefaults()
		c, err := newCollector(&cfg, ds.Top, ds.Resolver(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if silent {
			c.ingest(enginePkt(t, 0, 0, 0, collectRecords(t, run, 1)))
		}
		be, err := newBinExporters(ds, flowwire.FormatIPFIX)
		if err != nil {
			t.Fatal(err)
		}
		most := 0
		if _, err := be.schedule(0, bins, 0, 0, func(p replayPacket) error {
			c.ingest(p.data)
			if int(c.ctr.watermark.Load()) > grace { // past the grace rule's first seal
				most = max(most, int(c.ctr.binsOpen.Load()))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if c.ctr.lateRecords.Load() != 0 || c.ctr.wildRecords.Load() != 0 {
			t.Fatalf("%d late, %d wild records on an in-order replay", c.ctr.lateRecords.Load(), c.ctr.wildRecords.Load())
		}
		return most
	}
	early, control := peak(t, false), peak(t, true)
	t.Logf("%d engines at Grace %d: up to %d bins open, %d with a silent engine tracked", ds.Top.NumPoPs(), grace, early, control)
	if early > 3 {
		t.Errorf("%d engines at Grace %d held up to %d bins open, want at most 3", ds.Top.NumPoPs(), grace, early)
	}
	if control != grace {
		t.Errorf("with a silent engine tracked, up to %d bins open, want the grace rule's %d", control, grace)
	}
}

// TestLoopbackLaggingExporter replays the week over loopback with one
// exporter running behind the others. Two bins behind at Grace 3 the
// replay stays lossless and reaches batch parity, and the last bin is the
// only one open once the laggard has sent it (the grace rule alone would
// hold three). Three bins behind at Grace 2 the grace rule closes the
// laggard's bins before it sends them: exactly its records through bin
// bins−3 are late, and everything else is accepted. Under -short the
// replay is two days and parity is not checked, as in TestLoopbackEndToEnd.
func TestLoopbackLaggingExporter(t *testing.T) {
	run := testRun(t)
	bins, fullParity := run.Bins(), !testing.Short()
	if !fullParity {
		bins = 2 * traffic.BinsPerDay
	}
	var batchKeys []string
	if fullParity {
		batchKeys = batchAnomalyKeys(t, run)
	}
	t.Run("lag 2 at grace 3", func(t *testing.T) {
		t.Parallel()
		loopbackLeg(t, run, batchKeys, fullParity, Config{HTTPAddr: "127.0.0.1:0", Grace: 3},
			ReplayConfig{Format: flowwire.FormatNetFlowV5, To: bins, Conns: 2, Lag: 2})
	})
	t.Run("lag 3 at grace 2", func(t *testing.T) {
		t.Parallel()
		srv, err := New(run, Config{Grace: 2, Stream: parityStream(run)})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		sent, err := Replay(run.Dataset(), ReplayConfig{
			Addr: srv.UDPAddr().String(), To: bins, PacketsPerSecond: 10000, Conns: 2, Lag: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		awaitBooked(t, srv, sent)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		st := srv.Stats()
		late := laggardRecords(run.Dataset(), 0, bins-2)
		if st.LateRecords != late || st.Records != uint64(sent.Records)-late || st.LostRecords != 0 || st.WildRecords != 0 || st.BinsClosed != bins {
			t.Fatalf("%d accepted, %d late, %d lost, %d wild, %d bins closed; want %d late of %d and %d bins",
				st.Records, st.LateRecords, st.LostRecords, st.WildRecords, st.BinsClosed, late, sent.Records, bins)
		}
	})
}
