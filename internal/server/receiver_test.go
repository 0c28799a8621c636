package server

// receiver_test.go exercises receiver pools and several export engines in
// isolation from the loopback matrix: stats consistency under concurrent
// ingest, one template cache across sockets, late-loss accounting when one
// engine lags behind another's watermark, and a pool's state
// round-tripping through a checkpoint across a kill.

import (
	"encoding/json"
	"path/filepath"
	"sync"
	"testing"

	"netwide"
	"netwide/internal/flowwire"
	"netwide/internal/traffic"
)

// enginePkt is pkt with a chosen export engine, for tests that need
// several export streams.
func enginePkt(t *testing.T, engine uint8, seq uint32, bin int, recs []flowwire.Flow) []byte {
	t.Helper()
	b, err := flowwire.EncodeV5Packet(flowwire.V5Header{
		UnixSecs:     uint32(bin) * traffic.BinSeconds,
		FlowSequence: seq,
		EngineID:     engine,
	}, recs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStatsUnderIngestRace hammers the stats surface — the same assembly
// the HTTP handler serves, plus its JSON encoding — while packets flow,
// on one receiver and on a pool. The assertions are minimal on purpose:
// the test exists for the -race CI leg, where any unsynchronized counter
// read or shared-state access between receivers and the stats reader is
// the failure.
func TestStatsUnderIngestRace(t *testing.T) {
	run := testRun(t)
	recs := collectRecords(t, run, 5)
	legs := []struct {
		name string
		cfg  Config
	}{
		{"sync", Config{}},
		{"pool", Config{Receivers: 2}},
	}
	for _, leg := range legs {
		leg := leg
		t.Run(leg.name, func(t *testing.T) {
			cfg := leg.cfg
			cfg.Stream = parityStream(run)
			srv, err := New(run, cfg)
			if err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			var readers sync.WaitGroup
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					st := srv.Stats()
					json.Marshal(st)
				}
			}()

			const feeders = 2
			var feed sync.WaitGroup
			for f := 0; f < feeders; f++ {
				feed.Add(1)
				go func(f int) {
					defer feed.Done()
					seq := uint32(0)
					for i := 0; i < 300; i++ {
						p := enginePkt(t, uint8(f), seq, i%4, recs)
						seq += uint32(len(recs))
						// Feeder f drives receiver f when there is one
						// each; on one receiver they share it, like a
						// socket goroutine and a direct IngestPacket.
						srv.ingestOn(srv.recvs[f%len(srv.recvs)], p)
					}
				}(f)
			}
			feed.Wait()
			close(stop)
			readers.Wait()
			drainOK(t, srv)
			if st := srv.Stats(); st.Packets != feeders*300 {
				t.Fatalf("ingested %d packets, want %d", st.Packets, feeders*300)
			}
		})
	}
}

// TestTemplateSharedAcrossReceivers: an exporter's template-bearing IPFIX
// packet lands on one receiver and its next, data-only packet on another —
// what happens when the exporter's new source port hashes to another
// SO_REUSEPORT socket. Every receiver decodes through the one template
// cache, so the data-only packet decodes instead of counting bad.
func TestTemplateSharedAcrossReceivers(t *testing.T) {
	run := testRun(t)
	recs := collectRecords(t, run, 5)
	exp, err := flowwire.NewExporter(flowwire.FormatIPFIX, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 { // packet 0: templates + data; packet 1: data only
		for _, r := range recs {
			exp.Add(r)
		}
		exp.Flush()
	}
	pkts := exp.Drain()
	if len(pkts) != 2 {
		t.Fatalf("exporter produced %d packets, want 2", len(pkts))
	}
	srv, err := New(run, Config{Receivers: 2, Stream: parityStream(run)})
	if err != nil {
		t.Fatal(err)
	}
	srv.ingestOn(srv.recvs[0], pkts[0])
	srv.ingestOn(srv.recvs[1], pkts[1])
	st := srv.Stats()
	if st.BadPackets != 0 || st.Records != 2*uint64(len(recs)) {
		t.Fatalf("bad packets %d, records %d; want 0 and %d", st.BadPackets, st.Records, 2*len(recs))
	}
	drainOK(t, srv)
}

// TestLaggingEngineLateLoss pins late-loss accounting across export
// engines: once the watermark, driven by one engine running ahead, seals a
// bin, a straggler packet for that bin from another engine that has been
// silent must be dropped and counted late — never silently folded into a
// reopened bin, which would break daemon==batch parity.
func TestLaggingEngineLateLoss(t *testing.T) {
	run := testRun(t)
	srv, err := New(run, Config{Stream: parityStream(run)})
	if err != nil {
		t.Fatal(err)
	}
	recs := collectRecords(t, run, 10)

	// Engine 0 runs ahead through bin 5; each raise seals through
	// watermark-grace for every engine, including engine 1, which has
	// sent nothing yet.
	seq := uint32(0)
	for bin := 0; bin <= 5; bin++ {
		srv.IngestPacket(enginePkt(t, 0, seq, bin, recs))
		seq += uint32(len(recs))
	}
	st := srv.Stats()
	if st.Watermark != 5 || st.LastClosed != 4 || st.BinsOpen != 1 {
		t.Fatalf("watermark %d / last closed %d / open %d, want 5 / 4 / 1 (grace 1)", st.Watermark, st.LastClosed, st.BinsOpen)
	}

	// Engine 1 wakes up with traffic for bin 3, behind the seal point: its
	// records are counted late and bin 3 stays closed.
	srv.IngestPacket(enginePkt(t, 1, 0, 3, recs))
	st = srv.Stats()
	if st.LateRecords != uint64(len(recs)) || st.Records != 6*uint64(len(recs)) {
		t.Fatalf("late records %d, accepted %d; want %d late and engine 0's %d accepted", st.LateRecords, st.Records, len(recs), 6*len(recs))
	}
	if st.BinsOpen != 1 || st.LastClosed != 4 {
		t.Fatalf("the straggler reopened a bin: open %d, last closed %d", st.BinsOpen, st.LastClosed)
	}
	drainOK(t, srv)
}

// TestChaosPoolRestartParity is the receiver-pool half of the
// crash-safety contract: a 2-receiver daemon snapshotted at a controlled
// bin boundary, killed with unsnapshotted bins in flight, must restore its
// open bins, sequence cursors, dedupe rings and seal point, and
// characterize the remainder of the week exactly like the uninterrupted
// batch path. The duplicate count is asserted exactly: the snapshot's one
// fully-open bin is re-fed packet for packet across both receivers, and
// every one of those packets must be caught by the restored dedupe rings —
// no more (phantom dups would mean cursor corruption), no fewer (missed
// dups would double-count traffic and break parity).
//
// Under -short only two days are fed and the assertions stop at restore
// mechanics and ingest integrity.
func TestChaosPoolRestartParity(t *testing.T) {
	run := testRun(t)
	ds := run.Dataset()
	bins := run.Bins()
	full := true
	if testing.Short() {
		bins = 2 * traffic.BinsPerDay
		full = false
	}
	var batch []netwide.Anomaly
	if full {
		if err := run.Detect(netwide.DefaultDetectOptions()); err != nil {
			t.Fatal(err)
		}
		batch = run.Characterize()
		if len(batch) == 0 {
			t.Fatal("batch path characterized nothing; parity check is vacuous")
		}
	}

	path := filepath.Join(t.TempDir(), "daemon.nwcp")
	mk := func(receivers int) (*Server, error) {
		return New(run, Config{
			Receivers:       receivers,
			CheckpointPath:  path,
			CheckpointEvery: 1 << 30, // the explicit CheckpointNow is the only snapshot
			Detect:          netwide.DefaultDetectOptions(),
			Stream:          parityStream(run),
		})
	}

	kill := bins / 2
	srv, err := mk(2)
	if err != nil {
		t.Fatal(err)
	}
	feedBins(t, srv, ds, 0, kill, 0)
	if err := srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	// At the boundary the watermark sits on the last fed bin (kill-1),
	// sealed through kill-2 (grace 1): the snapshot holds bin kill-1 fully
	// open, which is exactly what gets re-fed after the
	// restore and must dedupe packet for packet.
	if st := srv.Stats(); st.LastCheckpointBin != kill-2 {
		t.Fatalf("snapshot covers through bin %d, want %d", st.LastCheckpointBin, kill-2)
	}
	dupPkts := 0
	{
		be, err := newBinExporters(ds, flowwire.FormatNetFlowV5)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < kill; b++ {
			pkts, _, err := be.encodeBin(b, 0)
			if err != nil {
				t.Fatal(err)
			}
			if b == kill-1 {
				dupPkts = len(pkts)
			}
		}
	}
	// A few more bins land after the snapshot and die with the process.
	feedBins(t, srv, ds, kill, kill+3, 0)
	ledgerAtKill := len(srv.Anomalies())
	srv.Kill()

	srv, err = mk(2)
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if !st.Restored || st.RestoreErr != "" {
		t.Fatalf("restart did not restore: %+v", st)
	}
	if st.LastClosed != kill-2 || st.RestoredBin != kill-2 {
		t.Fatalf("restart resumed at bin %d (restored %d), want %d", st.LastClosed, st.RestoredBin, kill-2)
	}
	if srv.col.sealedThrough != kill-2 {
		t.Fatalf("restored seal point %d, want %d", srv.col.sealedThrough, kill-2)
	}
	if st.BinsOpen == 0 {
		t.Fatalf("restore dropped the snapshot's open bin: %+v", st)
	}
	if len(srv.Anomalies()) > ledgerAtKill {
		t.Fatalf("restored ledger grew across the crash: %d > %d", len(srv.Anomalies()), ledgerAtKill)
	}

	feedBins(t, srv, ds, kill-1, bins, 0)
	drainOK(t, srv)
	st = srv.Stats()
	if st.LostRecords != 0 || st.BadPackets != 0 || st.LateRecords != 0 || st.Unroutable != 0 || st.WildRecords != 0 {
		t.Fatalf("pool kill/restart took ingest losses: %+v", st)
	}
	if st.Duplicates != uint64(dupPkts) {
		t.Fatalf("duplicates %d, want exactly %d: every packet of the snapshot's open bin, caught by the restored dedupe rings", st.Duplicates, dupPkts)
	}
	if st.BinsClosed != bins || st.BinsOpen != 0 {
		t.Fatalf("closed %d bins (open %d), want %d: every bin closed exactly once across the crash", st.BinsClosed, st.BinsOpen, bins)
	}
	if st.LastCheckpointBin != bins-1 {
		t.Fatalf("drain snapshot covers through bin %d, want %d", st.LastCheckpointBin, bins-1)
	}

	if full {
		bk := sortedKeys(batch)
		sk := sortedKeys(srv.Anomalies())
		if len(bk) != len(sk) {
			t.Fatalf("killed pool daemon characterized %d anomalies, uninterrupted batch %d:\n daemon %v\n batch  %v", len(sk), len(bk), sk, bk)
		}
		for i := range bk {
			if bk[i] != sk[i] {
				t.Errorf("anomaly %d differs:\n batch  %s\n daemon %s", i, bk[i], sk[i])
			}
		}
	} else if srv.Err() != nil {
		t.Fatalf("short pool chaos run left the daemon unhealthy: %v", srv.Err())
	}

	// Receivers are not in the fingerprint: the pool's drain snapshot
	// restores into a single-receiver daemon.
	t.Run("receiver count change restores", func(t *testing.T) {
		srv, err := mk(1)
		if err != nil {
			t.Fatal(err)
		}
		if st := srv.Stats(); !st.Restored || st.RestoreErr != "" || st.LastClosed != bins-1 {
			t.Fatalf("a 1-receiver daemon did not restore the pool's snapshot: %+v", st)
		}
		srv.Kill()
	})
}
