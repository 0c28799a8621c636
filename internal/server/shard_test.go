package server

// shard_test.go exercises receiver pools and shards in isolation from the
// loopback matrix: stats consistency under concurrent ingest, late-loss
// accounting when one shard's traffic skews past another's seal horizon,
// and per-shard state round-tripping through a checkpoint across a kill.

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"netwide"
	"netwide/internal/flowwire"
	"netwide/internal/traffic"
)

// enginePkt is pkt with a chosen export engine, for tests that need
// traffic landing on specific shards.
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
// on one receiver and partition and on a pool of each. The assertions are
// minimal on purpose: the test exists for the -race CI leg, where any
// unsynchronized counter read or shared-state access between receivers,
// partitions and the stats reader is the failure.
func TestStatsUnderIngestRace(t *testing.T) {
	run := testRun(t)
	recs := collectRecords(t, run, 5)
	legs := []struct {
		name string
		cfg  Config
	}{
		{"sync", Config{}},
		{"sharded", Config{Receivers: 2, Shards: 2}},
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

// TestShardSkewLateLoss pins late-loss accounting across shards: once the
// watermark (driven by one shard's engine) seals a bin on EVERY shard, a
// straggler packet for that bin arriving on another
// shard must be dropped and counted late on that shard's own ledger —
// never silently folded into a reopened bin, which would break
// daemon==batch parity.
func TestShardSkewLateLoss(t *testing.T) {
	run := testRun(t)
	srv, err := New(run, Config{Shards: 2, Stream: parityStream(run)})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := srv.shardOf(0), srv.shardOf(1); a == b {
		t.Fatalf("engines 0 and 1 hash to the same shard (%d): the skew scenario needs two shards", a)
	}
	recs := collectRecords(t, run, 10)

	// Engine 0 runs ahead through bin 5; each raise seals through
	// watermark-grace on BOTH shards, including engine 1's, which has seen
	// no traffic at all.
	seq := uint32(0)
	for bin := 0; bin <= 5; bin++ {
		srv.ingestOn(srv.recvs[0], enginePkt(t, 0, seq, bin, recs))
		seq += uint32(len(recs))
	}
	st := srv.Stats()
	if st.Watermark != 5 || st.LastClosed != 4 {
		t.Fatalf("watermark %d / last closed %d, want 5 / 4 (grace 1)", st.Watermark, st.LastClosed)
	}
	for i, sh := range st.Shards {
		if sh.SealedThrough != 4 {
			t.Fatalf("shard %d sealed through %d, want 4: bin close must advance idle shards too", i, sh.SealedThrough)
		}
	}

	// Engine 1 wakes up with traffic for bin 3 — inside its shard's sealed
	// horizon. The records must be counted late on engine 1's shard.
	srv.ingestOn(srv.recvs[0], enginePkt(t, 1, 0, 3, recs))
	st = srv.Stats()
	if st.LateRecords != uint64(len(recs)) {
		t.Fatalf("late records %d, want %d", st.LateRecords, len(recs))
	}
	skewed := st.Shards[srv.shardOf(1)]
	if skewed.LateRecords != uint64(len(recs)) || skewed.Records != 0 {
		t.Fatalf("skewed shard ledger %+v, want all %d records late and none accepted", skewed, len(recs))
	}
	ahead := st.Shards[srv.shardOf(0)]
	if ahead.LateRecords != 0 || ahead.Records != 6*uint64(len(recs)) {
		t.Fatalf("leading shard ledger %+v, want %d records and no late", ahead, 6*len(recs))
	}
	if st.Records != 6*uint64(len(recs)) {
		t.Fatalf("accepted records %d, want %d", st.Records, 6*len(recs))
	}
	drainOK(t, srv)
}

// TestChaosShardedRestartParity is the sharded half of the crash-safety
// contract: a 4-shard daemon snapshotted at a controlled bin boundary,
// killed with unsnapshotted bins in flight, must restore every shard's
// partition — open bins, sequence cursors, dedupe rings, seal horizon —
// and characterize the remainder of the week exactly like the
// uninterrupted batch path. The duplicate count is asserted exactly: the
// snapshot's one fully-open bin is re-fed packet for packet, and every
// one of those packets must be caught by the restored per-shard dedupe
// rings — no more (phantom dups would mean cursor corruption), no fewer
// (missed dups would double-count traffic and break parity).
//
// Under -short only two days are fed and the assertions stop at restore
// mechanics and ingest integrity.
func TestChaosShardedRestartParity(t *testing.T) {
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
	mk := func(shards int) (*Server, error) {
		return New(run, Config{
			Shards:          shards,
			CheckpointPath:  path,
			CheckpointEvery: 1 << 30, // the explicit CheckpointNow is the only snapshot
			Detect:          netwide.DefaultDetectOptions(),
			Stream:          parityStream(run),
		})
	}

	kill := bins / 2
	srv, err := mk(4)
	if err != nil {
		t.Fatal(err)
	}
	feedBins(t, srv, ds, 0, kill, 0)
	if err := srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	// At the boundary the watermark sits on the last fed bin (kill-1),
	// sealed through kill-2 (grace 1): the snapshot holds bin kill-1 fully
	// open across the shards, which is exactly what gets re-fed after the
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

	srv, err = mk(4)
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
	if len(st.Shards) != 4 {
		t.Fatalf("restored daemon reports %d shards, want 4", len(st.Shards))
	}
	for i, sh := range st.Shards {
		if sh.SealedThrough != kill-2 {
			t.Fatalf("shard %d restored sealed through %d, want %d", i, sh.SealedThrough, kill-2)
		}
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
		t.Fatalf("sharded kill/restart took ingest losses: %+v", st)
	}
	if st.Duplicates != uint64(dupPkts) {
		t.Fatalf("duplicates %d, want exactly %d: every packet of the snapshot's open bin, caught by the restored per-shard dedupe rings", st.Duplicates, dupPkts)
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
			t.Fatalf("killed sharded daemon characterized %d anomalies, uninterrupted batch %d:\n daemon %v\n batch  %v", len(sk), len(bk), sk, bk)
		}
		for i := range bk {
			if bk[i] != sk[i] {
				t.Errorf("anomaly %d differs:\n batch  %s\n daemon %s", i, bk[i], sk[i])
			}
		}
	} else if srv.Err() != nil {
		t.Fatalf("short sharded chaos run left the daemon unhealthy: %v", srv.Err())
	}

	// The drain left a 4-shard snapshot on disk; a daemon with a different
	// shard layout cannot adopt its partitioned state and must cold-start.
	t.Run("shard count mismatch cold starts", func(t *testing.T) {
		srv, err := mk(3)
		if err != nil {
			t.Fatalf("shard-layout change kept the collector down: %v", err)
		}
		st := srv.Stats()
		if st.CheckpointFallbacks != 1 || !strings.Contains(st.RestoreErr, "shard") {
			t.Fatalf("layout mismatch not surfaced as a fallback: %+v", st)
		}
		if st.Restored || st.LastClosed != -1 {
			t.Fatalf("cold start leaked foreign shard state: %+v", st)
		}
		srv.Kill()
	})
}
