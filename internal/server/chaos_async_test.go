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
	path := filepath.Join(t.TempDir(), "daemon.nwcp")
	inj := fault.NewInjector()
	inj.Arm(checkpoint.FaultSync, fault.Fault{Delay: 30 * time.Millisecond})
	srv, err := New(run, Config{
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
			t.Fatalf("CheckpointNow after bin %d: %+v", to-1, st)
		}
		if got := onDiskThrough(t, path); got != st.LastClosed {
			t.Fatalf("CheckpointNow returned with the file at bin %d, last closed %d", got, st.LastClosed)
		}
	}
	feedBins(t, srv, run.Dataset(), 12, 16, 0)
	drainOK(t, srv)
	if got := onDiskThrough(t, path); got != 15 || srv.Stats().LastCheckpointBin != 15 {
		t.Fatalf("Drain returned with the file at bin %d (stats %d), want 15", got, srv.Stats().LastCheckpointBin)
	}
	if err := srv.CheckpointNow(); err == nil {
		t.Fatal("CheckpointNow after the drain succeeded")
	}
}

// TestChaosKillDuringWrite: the process dies while a snapshot is between
// its temp file and its rename (a stalled fsync that never completes). The
// file on disk must be the complete earlier snapshot, and a daemon
// restored from it and fed the rest of the week must reach exactly the
// uninterrupted batch ledger.
// Under -short two days are fed and the ledger comparison is
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
	path := filepath.Join(t.TempDir(), "daemon.nwcp")
	inj := fault.NewInjector()
	mk := func() *Server {
		srv, err := New(run, Config{
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
		t.Fatalf("snapshot covers through bin %d, want %d", good, kill-2)
	}

	// From here on a write reaches its fsync, hangs there, and fails:
	// what a crash between the temp file and the rename looks like.
	inj.Arm(checkpoint.FaultSync, fault.Fault{Delay: 300 * time.Millisecond, Err: fault.ErrDiskFull})
	feedBins(t, srv, ds, kill, kill+20, 5)
	for deadline := time.Now().Add(10 * time.Second); len(srv.cpSlot) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("20 bins at cadence 7 started no snapshot")
		}
	}
	srv.Kill()
	if n := inj.Trips(checkpoint.FaultSync); n == 0 {
		t.Fatalf("no write was in flight at the kill")
	}
	if got := onDiskThrough(t, path); got != good {
		t.Fatalf("file on disk covers bin %d after the kill, want the earlier snapshot's %d", got, good)
	}
	inj.Disarm(checkpoint.FaultSync)

	srv = mk()
	st := srv.Stats()
	if !st.Restored || st.RestoreErr != "" || st.LastClosed != good || st.BinsOpen == 0 {
		t.Fatalf("restart did not restore the earlier snapshot: %+v", st)
	}
	feedBins(t, srv, ds, good+1, bins, 0)
	drainOK(t, srv)
	st = srv.Stats()
	if st.LostRecords != 0 || st.BadPackets != 0 || st.LateRecords != 0 || st.Unroutable != 0 || st.WildRecords != 0 {
		t.Fatalf("kill/restart took ingest losses: %+v", st)
	}
	if st.BinsClosed != bins || st.BinsOpen != 0 || st.LastCheckpointBin != bins-1 {
		t.Fatalf("closed %d bins (open %d), drain snapshot through %d, want %d bins: %+v", st.BinsClosed, st.BinsOpen, st.LastCheckpointBin, bins, st)
	}
	if batch == nil {
		if srv.Err() != nil {
			t.Fatalf("short run left the daemon unhealthy: %v", srv.Err())
		}
		return
	}
	got := sortedKeys(srv.Anomalies())
	if len(got) != len(batch) {
		t.Fatalf("daemon killed mid-write characterized %d anomalies, uninterrupted batch %d", len(got), len(batch))
	}
	for i := range batch {
		if got[i] != batch[i] {
			t.Errorf("anomaly %d differs:\n batch  %s\n daemon %s", i, batch[i], got[i])
		}
	}
}

// TestChaosSnapshotsUnderConcurrentIngest is for the -race leg and the
// lock order: two feeders ingesting, the cadence starting a snapshot on every closed bin from inside a
// bin close, a CheckpointNow caller looping for the slot, the verdict
// consumer completing tickets, the writer booking them and a stats reader,
// all at once, ended by a Drain or a Kill. A lock taken out of order
// deadlocks here, and the test hangs until -timeout. Whatever the
// interleaving, every snapshot that reports success must leave a file that
// restores; the drain's must cover the last bin, and after a kill the file
// must restore to the bin it covers.
func TestChaosSnapshotsUnderConcurrentIngest(t *testing.T) {
	run := testRun(t)
	recs := collectRecords(t, run, 5)
	for _, row := range []struct {
		name string
		cfg  Config
		kill bool
	}{
		{"sync", Config{}, false},
		{"sync-kill", Config{}, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg
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
						srv.IngestPacket(p)
					}
				}(f)
			}
			feed.Wait()
			close(stop)
			side.Wait()
			if row.kill {
				srv.Kill()
			} else {
				drainOK(t, srv)
			}
			// A kill leaves the file at the last snapshot that landed; the
			// drain closes bin 39 and snapshots it.
			st := srv.Stats()
			last := 39
			if row.kill {
				last = 38
			}
			if st.CheckpointErrors != 0 || st.LastClosed != last || st.LastCheckpointBin > last || !row.kill && st.LastCheckpointBin != last {
				t.Fatalf("after the %s: %+v", row.name, st)
			}
			again, err := New(run, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rs := again.Stats(); !rs.Restored || rs.RestoreErr != "" || rs.LastClosed != st.LastCheckpointBin || !row.kill && rs.Records != st.Records {
				t.Fatalf("restore of the %s's snapshot: %+v", row.name, rs)
			}
			again.Kill()
		})
	}
}
