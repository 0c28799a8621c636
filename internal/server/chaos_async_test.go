package server

// chaos_async_test.go covers what moved when snapshots left the ingest
// lock: a slow disk must cost ingest nothing, a kill with a write in
// flight must leave a complete earlier snapshot that restores to full
// parity, and the callers that asked for a snapshot themselves
// (CheckpointNow, Drain) must still find it on disk when they return.

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"netwide"
	"netwide/internal/checkpoint"
	"netwide/internal/fault"
	"netwide/internal/flowwire"
	"netwide/internal/traffic"
)

// onDiskThrough reads the snapshot file and returns the last closed bin it
// covers.
func onDiskThrough(t *testing.T, path string) int {
	t.Helper()
	st, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatalf("snapshot on disk unreadable: %v", err)
	}
	return st.Server.LastClosed
}

// TestChaosSlowDiskOffIngestPath: with every fsync stalled, bins keep
// closing at ingest speed — the cadence starts a snapshot when the previous
// one has landed and folds the ticks in between into it — the snapshot
// cursor only moves forward, and the drain's snapshot still covers the last
// bin.
func TestChaosSlowDiskOffIngestPath(t *testing.T) {
	run := testRun(t)
	const bins, delay = 40, 100 * time.Millisecond
	path := filepath.Join(t.TempDir(), "daemon.nwcp")
	inj := fault.NewInjector()
	inj.Arm(checkpoint.FaultSync, fault.Fault{Delay: delay})
	srv, err := New(run, Config{
		CheckpointPath: path, // default cadence: a snapshot every closed bin
		Faults:         inj,
		Stream:         parityStream(run),
	})
	if err != nil {
		t.Fatal(err)
	}
	be, err := newBinExporters(run.Dataset(), flowwire.FormatNetFlowV5)
	if err != nil {
		t.Fatal(err)
	}
	cursor := -1
	start := time.Now()
	for bin := 0; bin < bins; bin++ {
		pkts, _, err := be.encodeBin(bin, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			srv.IngestPacket(p.data)
		}
		st := srv.Stats()
		if st.LastCheckpointBin < cursor || st.LastCheckpointBin > st.LastClosed || st.CheckpointLagBins != st.LastClosed-st.LastCheckpointBin {
			t.Fatalf("after bin %d: snapshot cursor %d (was %d), last closed %d, lag %d", bin, st.LastCheckpointBin, cursor, st.LastClosed, st.CheckpointLagBins)
		}
		cursor = st.LastCheckpointBin
	}
	fed := time.Since(start)
	st := srv.Stats()
	if fed > bins*delay/4 {
		t.Fatalf("%d bins took %v to ingest with a %v fsync: ingest waits for the disk", bins, fed, delay)
	}
	if st.BinsClosed != bins-1 || st.CheckpointsWritten >= uint64(st.BinsClosed) || st.CheckpointsCoalesced == 0 {
		t.Fatalf("closed %d bins with %d snapshots written and %d ticks coalesced: want fewer writes than bins", st.BinsClosed, st.CheckpointsWritten, st.CheckpointsCoalesced)
	}
	drainOK(t, srv)
	st = srv.Stats()
	if st.LastCheckpointBin != bins-1 || st.CheckpointLagBins != 0 || st.CheckpointErrors != 0 {
		t.Fatalf("drain snapshot: %+v", st)
	}
	if st.CheckpointLastWriteMs < float64(delay/time.Millisecond) {
		t.Fatalf("last write reported %.1f ms with a %v fsync", st.CheckpointLastWriteMs, delay)
	}
	if got := onDiskThrough(t, path); got != bins-1 {
		t.Fatalf("file on disk covers bin %d, want %d", got, bins-1)
	}
}

// TestChaosSnapshotCallersWait: CheckpointNow and Drain keep their
// contract — when they return, the file on disk covers every bin closed
// before the call — even when they find a cadence snapshot in flight on a
// slow disk, which they have to wait out first.
func TestChaosSnapshotCallersWait(t *testing.T) {
	run := testRun(t)
	for _, shards := range []int{1, 4} {
		path := filepath.Join(t.TempDir(), "daemon.nwcp")
		inj := fault.NewInjector()
		inj.Arm(checkpoint.FaultSync, fault.Fault{Delay: 30 * time.Millisecond})
		srv, err := New(run, Config{
			Shards:         shards,
			CheckpointPath: path,
			Faults:         inj,
			Stream:         parityStream(run),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, to := range []int{6, 12} {
			feedBins(t, srv, run.Dataset(), to-6, to, 0)
			if err := srv.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
			st := srv.Stats()
			if st.LastClosed != to-2 || st.LastCheckpointBin != st.LastClosed || st.CheckpointLagBins != 0 {
				t.Fatalf("%d shards, CheckpointNow after bin %d: %+v", shards, to-1, st)
			}
			if got := onDiskThrough(t, path); got != st.LastClosed {
				t.Fatalf("%d shards: CheckpointNow returned with the file at bin %d, last closed %d", shards, got, st.LastClosed)
			}
		}
		feedBins(t, srv, run.Dataset(), 12, 16, 0)
		drainOK(t, srv)
		if got := onDiskThrough(t, path); got != 15 || srv.Stats().LastCheckpointBin != 15 {
			t.Fatalf("%d shards: Drain returned with the file at bin %d (stats %d), want 15", shards, got, srv.Stats().LastCheckpointBin)
		}
		if err := srv.CheckpointNow(); err == nil {
			t.Fatalf("%d shards: CheckpointNow after the drain succeeded", shards)
		}
	}
}

// TestChaosKillDuringWrite: the process dies while a snapshot is between
// its temp file and its rename (a stalled fsync that never completes). The
// file on disk must be the complete earlier snapshot, and a daemon
// restored from it and fed the rest of the week must reach exactly the
// uninterrupted batch ledger — on the synchronous path and with four
// shards. Under -short two days are fed and the ledger comparison is
// skipped (batch event windows span the week).
func TestChaosKillDuringWrite(t *testing.T) {
	run := testRun(t)
	ds := run.Dataset()
	bins := run.Bins()
	var batch []string
	if testing.Short() {
		bins = 2 * traffic.BinsPerDay
	} else {
		if err := run.Detect(netwide.DefaultDetectOptions()); err != nil {
			t.Fatal(err)
		}
		batch = sortedKeys(run.Characterize())
		if len(batch) == 0 {
			t.Fatal("batch path characterized nothing; parity check is vacuous")
		}
	}
	for _, shards := range []int{1, 4} {
		path := filepath.Join(t.TempDir(), "daemon.nwcp")
		inj := fault.NewInjector()
		mk := func() *Server {
			srv, err := New(run, Config{
				Shards:          shards,
				CheckpointPath:  path,
				CheckpointEvery: 7,
				Faults:          inj,
				Detect:          netwide.DefaultDetectOptions(),
				Stream:          parityStream(run),
			})
			if err != nil {
				t.Fatal(err)
			}
			return srv
		}
		kill := bins / 2
		srv := mk()
		feedBins(t, srv, ds, 0, kill, 0)
		if err := srv.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		good := srv.Stats().LastCheckpointBin
		if good != kill-2 {
			t.Fatalf("%d shards: snapshot covers through bin %d, want %d", shards, good, kill-2)
		}

		// From here on a write reaches its fsync, hangs there, and fails:
		// what a crash between the temp file and the rename looks like.
		inj.Arm(checkpoint.FaultSync, fault.Fault{Delay: 300 * time.Millisecond, Err: fault.ErrDiskFull})
		feedBins(t, srv, ds, kill, kill+20, 5)
		for deadline := time.Now().Add(10 * time.Second); len(srv.cpSlot) == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d shards: 20 bins at cadence 7 started no snapshot", shards)
			}
		}
		srv.Kill()
		if n := inj.Trips(checkpoint.FaultSync); n == 0 {
			t.Fatalf("%d shards: no write was in flight at the kill", shards)
		}
		if got := onDiskThrough(t, path); got != good {
			t.Fatalf("%d shards: file on disk covers bin %d after the kill, want the earlier snapshot's %d", shards, got, good)
		}
		inj.Disarm(checkpoint.FaultSync)

		srv = mk()
		st := srv.Stats()
		if !st.Restored || st.RestoreErr != "" || st.LastClosed != good || st.BinsOpen == 0 {
			t.Fatalf("%d shards: restart did not restore the earlier snapshot: %+v", shards, st)
		}
		feedBins(t, srv, ds, good+1, bins, 0)
		drainOK(t, srv)
		st = srv.Stats()
		if st.LostRecords != 0 || st.BadPackets != 0 || st.LateRecords != 0 || st.Unroutable != 0 || st.WildRecords != 0 {
			t.Fatalf("%d shards: kill/restart took ingest losses: %+v", shards, st)
		}
		if st.BinsClosed != bins || st.BinsOpen != 0 || st.LastCheckpointBin != bins-1 {
			t.Fatalf("%d shards: closed %d bins (open %d), drain snapshot through %d, want %d bins: %+v", shards, st.BinsClosed, st.BinsOpen, st.LastCheckpointBin, bins, st)
		}
		if batch == nil {
			if srv.Err() != nil {
				t.Fatalf("%d shards: short run left the daemon unhealthy: %v", shards, srv.Err())
			}
			continue
		}
		got := sortedKeys(srv.Anomalies())
		if len(got) != len(batch) {
			t.Fatalf("%d shards: daemon killed mid-write characterized %d anomalies, uninterrupted batch %d", shards, len(got), len(batch))
		}
		for i := range batch {
			if got[i] != batch[i] {
				t.Errorf("%d shards: anomaly %d differs:\n batch  %s\n daemon %s", shards, i, batch[i], got[i])
			}
		}
	}
}

// TestChaosSnapshotsUnderConcurrentIngest is for the -race leg: the
// cadence starting snapshots from the ingest side, CheckpointNow callers
// queueing for the slot, the verdict consumer completing tickets, the
// writer booking them and a stats reader, all at once, on both ingest
// paths. Whatever the interleaving, every snapshot that reports success
// must leave a file that restores, and the drain's must cover the last bin.
func TestChaosSnapshotsUnderConcurrentIngest(t *testing.T) {
	run := testRun(t)
	recs := collectRecords(t, run, 5)
	for _, cfg := range []Config{{}, {Receivers: 2, Shards: 2}} {
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "daemon.nwcp")
		cfg.Stream = parityStream(run)
		srv, err := New(run, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var side sync.WaitGroup
		side.Add(2)
		go func() {
			defer side.Done()
			for {
				select {
				case <-stop:
					return
				default:
					srv.Stats()
				}
			}
		}()
		go func() {
			defer side.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := srv.CheckpointNow(); err != nil {
					t.Errorf("CheckpointNow under ingest: %v", err)
					return
				}
				if _, err := checkpoint.ReadFile(cfg.CheckpointPath); err != nil {
					t.Errorf("snapshot on disk after CheckpointNow: %v", err)
					return
				}
			}
		}()
		var feed sync.WaitGroup
		for f := 0; f < 2; f++ {
			feed.Add(1)
			go func(f int) {
				defer feed.Done()
				seq := uint32(0)
				for i := 0; i < 400; i++ {
					p := enginePkt(t, uint8(f), seq, i/10, recs) // a new bin every ten packets
					seq += uint32(len(recs))
					if srv.sharded() {
						srv.ingestOn(srv.recvs[f], p)
					} else {
						srv.IngestPacket(p)
					}
				}
			}(f)
		}
		feed.Wait()
		close(stop)
		side.Wait()
		drainOK(t, srv)
		st := srv.Stats()
		if st.CheckpointErrors != 0 || st.LastCheckpointBin != st.LastClosed || st.LastClosed != 39 {
			t.Fatalf("after the drain: %+v", st)
		}
		again, err := New(run, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rs := again.Stats(); !rs.Restored || rs.RestoreErr != "" || rs.LastClosed != 39 || rs.Records != st.Records {
			t.Fatalf("restore of the drain's snapshot: %+v", rs)
		}
		again.Kill()
	}
}
