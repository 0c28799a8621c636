package server

// chaos_test.go is the fault-injection end-to-end suite: every scenario
// here kills, starves or corrupts the daemon somewhere production
// eventually will, and asserts the crash-safety contract — a restart
// resumes from the last snapshot and characterizes the remainder of the
// week exactly as an uninterrupted daemon would, a failed snapshot write
// degrades the daemon instead of killing it, and a bad file on disk can
// never keep the collector down.

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"netwide"
	"netwide/internal/checkpoint"
	"netwide/internal/classify"
	"netwide/internal/dataset"
	"netwide/internal/fault"
	"netwide/internal/flowwire"
	"netwide/internal/traffic"
)

// feedBins drives the dataset's regenerated v5 packets straight into the
// daemon through IngestPacket. Bins [0, to) are always encoded — the exporters' sequence
// numbers must be the ones a single uninterrupted export engine would have
// produced — but only bins [from, to) are ingested, which is how a test
// resumes a restored daemon mid-week: the re-fed bins are bit-identical to
// the originals, so the one packet the snapshot already holds is caught by
// the restored dedupe ring. partial additionally ingests up to that many
// packets of bin to itself — the mid-bin crash shape.
func feedBins(t *testing.T, srv *Server, ds *dataset.Dataset, from, to, partial int) {
	t.Helper()
	be, err := newBinExporters(ds, flowwire.FormatNetFlowV5)
	if err != nil {
		t.Fatal(err)
	}
	for bin := 0; bin < to; bin++ {
		pkts, _, err := be.encodeBin(bin, 0)
		if err != nil {
			t.Fatal(err)
		}
		if bin < from {
			continue
		}
		for _, p := range pkts {
			srv.IngestPacket(p.data)
		}
	}
	if partial > 0 {
		pkts, _, err := be.encodeBin(to, 0)
		if err != nil {
			t.Fatal(err)
		}
		if partial > len(pkts) {
			partial = len(pkts)
		}
		for _, p := range pkts[:partial] {
			srv.IngestPacket(p.data)
		}
	}
}

// awaitSnapshot returns once no snapshot is on its way to disk: the bin
// cadence only starts a snapshot, so a test that reads the bookkeeping of
// "the snapshot those bins triggered" waits for the write to land first.
func awaitSnapshot(srv *Server) {
	srv.cpSlot <- struct{}{}
	<-srv.cpSlot
}

func drainOK(t testing.TB, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestChaosKillRestartParity is the tentpole proof of crash safety: the
// daemon is killed twice mid-week — once mid-bin at an arbitrary point,
// once in the middle of an anomaly's event window, the worst case for the
// aggregator's open events — restarted from its snapshot each time, and
// fed the rest of the week. The final anomaly ledger must match the batch
// Detect + Characterize output on the same data exactly: restored models
// score bit-identically, reopened events extend across the crash, and the
// restored sequence cursors dedupe the one packet the snapshot already
// held.
//
// Under -short only two days are fed and the assertions stop at restore
// mechanics and ingest integrity (batch event windows span the week, so
// exact anomaly parity is only meaningful on a full feed).
func TestChaosKillRestartParity(t *testing.T) {
	run := testRun(t)
	ds := run.Dataset()
	bins := run.Bins()
	full := true
	if testing.Short() {
		bins = 2 * traffic.BinsPerDay
		full = false
	}

	kills := []int{bins / 3, 2 * bins / 3}
	var batch []netwide.Anomaly
	if full {
		if err := run.Detect(netwide.DefaultDetectOptions()); err != nil {
			t.Fatal(err)
		}
		batch = run.Characterize()
		if len(batch) == 0 {
			t.Fatal("batch path characterized nothing; parity check is vacuous")
		}
		// Put the second kill inside an anomaly's window when one fits: the
		// crash then lands while the aggregator holds the event open, and
		// only the snapshot's reopened event can stitch it back together.
		for _, a := range batch {
			if a.StartBin > kills[0]+8 && a.EndBin < bins-8 && a.EndBin > a.StartBin {
				kills[1] = (a.StartBin + a.EndBin) / 2
				break
			}
		}
	}

	path := filepath.Join(t.TempDir(), "daemon.nwcp")
	newSrv := func() *Server {
		srv, err := New(run, Config{
			CheckpointPath:  path,
			CheckpointEvery: 7,
			Detect:          netwide.DefaultDetectOptions(),
			Stream:          parityStream(run),
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	srv := newSrv()
	if srv.Stats().Restored {
		t.Fatal("fresh daemon claims to have restored")
	}
	from := 0
	for i, kill := range kills {
		feedBins(t, srv, ds, from, kill, 5) // 5 packets into the kill bin: a mid-bin crash
		if st := srv.Stats(); st.CheckpointsWritten == 0 {
			t.Fatalf("segment %d wrote no snapshot before the kill", i)
		}
		atKill := srv.Stats()
		srv.Kill()
		// Read after the kill: a snapshot that was in flight lands while
		// Kill waits for it, with the ledger as of its barrier — verdicts
		// the consumer may not have folded in yet when the kill began.
		dead := srv.Anomalies()

		srv = newSrv()
		st := srv.Stats()
		if !st.Restored || st.RestoreErr != "" {
			t.Fatalf("restart %d did not restore: %+v", i, st)
		}
		if st.LastClosed <= from-1 || st.LastClosed >= kill {
			t.Fatalf("restart %d resumed at bin %d, outside segment [%d,%d)", i, st.LastClosed, from, kill)
		}
		if st.RestoredBin != st.LastClosed || st.LastCheckpointBin != st.LastClosed {
			t.Fatalf("restart %d cursor bookkeeping inconsistent: %+v", i, st)
		}
		// The staleness bound is CheckpointEvery bins plus the write that
		// was in flight — which is what the lag gauge reported at the kill:
		// the snapshot on disk is never older than the one the daemon said
		// it had.
		if st.LastClosed < atKill.LastCheckpointBin || kill-1-st.LastClosed > atKill.CheckpointLagBins {
			t.Fatalf("restart %d resumed at bin %d, staler than the daemon reported at the kill (snapshot through %d, lag %d)",
				i, st.LastClosed, atKill.LastCheckpointBin, atKill.CheckpointLagBins)
		}
		// The restored ledger is a prefix of the dead daemon's: nothing
		// invented, nothing reordered.
		restored := srv.Anomalies()
		if len(restored) > len(dead) {
			t.Fatalf("restart %d ledger grew across the crash: %d > %d", i, len(restored), len(dead))
		}
		for j, a := range restored {
			if anomalyKey(a) != anomalyKey(dead[j]) {
				t.Fatalf("restart %d ledger entry %d differs from the dead daemon's:\n restored %s\n dead     %s", i, j, anomalyKey(a), anomalyKey(dead[j]))
			}
		}
		from = st.LastClosed + 1
	}
	feedBins(t, srv, ds, from, bins, 0)
	drainOK(t, srv)

	st := srv.Stats()
	if st.LostRecords != 0 || st.BadPackets != 0 || st.LateRecords != 0 || st.Unroutable != 0 || st.WildRecords != 0 {
		t.Fatalf("kill/restart cycles took ingest losses: %+v", st)
	}
	if st.Duplicates != uint64(len(kills)) {
		t.Fatalf("duplicates %d, want exactly %d: one snapshot-overlap packet per restore, caught by the restored dedupe ring", st.Duplicates, len(kills))
	}
	if st.BinsClosed != bins || st.BinsOpen != 0 {
		t.Fatalf("closed %d bins (open %d), want %d: every bin closed exactly once across the crashes", st.BinsClosed, st.BinsOpen, bins)
	}
	if st.LastCheckpointBin != bins-1 {
		t.Fatalf("drain snapshot covers through bin %d, want %d", st.LastCheckpointBin, bins-1)
	}
	if !full {
		if srv.Err() != nil {
			t.Fatalf("short chaos run left the daemon unhealthy: %v", srv.Err())
		}
		return
	}

	streamed := srv.Anomalies()
	bk := sortedKeys(batch)
	sk := sortedKeys(streamed)
	if len(bk) != len(sk) {
		t.Fatalf("killed-twice daemon characterized %d anomalies, uninterrupted batch %d:\n daemon %v\n batch  %v", len(sk), len(bk), sk, bk)
	}
	for i := range bk {
		if bk[i] != sk[i] {
			t.Errorf("anomaly %d differs:\n batch  %s\n daemon %s", i, bk[i], sk[i])
		}
	}
}

// TestChaosKillRestartRefitParity is the kill/restart proof under the refit
// lifecycle: a daemon trained on the first half of the week refits every 36
// bins on a rolling window while it is fed the second half, and is killed
// twice — once mid-bin with whatever snapshot the cadence last wrote, once
// right after a snapshot taken on a refit-due bin — and restarted from its
// snapshot each time. Its final ledger must equal StreamDetector.Replay of
// the same bins under the same StreamConfig: each lane refits before it
// scores its next bin, so the generation that scores a bin follows from the
// input alone, and a snapshot carries the refit phase and the new
// generation exactly.
func TestChaosKillRestartRefitParity(t *testing.T) {
	run := testRun(t)
	ds := run.Dataset()
	half, bins := run.Bins()/2, run.Bins()
	if testing.Short() {
		bins = half + traffic.BinsPerDay
	}
	cfg := netwide.StreamConfig{TrainBins: half, BatchSize: 16, RefitEvery: 36, Window: half}

	ref, err := run.NewStreamDetector(netwide.DefaultDetectOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	verdicts, err := ref.Replay(half, bins)
	if err != nil {
		t.Fatal(err)
	}
	var replayed []netwide.Anomaly
	for _, v := range verdicts {
		replayed = append(replayed, v.Anomalies...)
	}
	if len(replayed) == 0 {
		t.Fatal("replay characterized nothing; parity check is vacuous")
	}

	path := filepath.Join(t.TempDir(), "daemon.nwcp")
	newSrv := func() *Server {
		srv, err := New(run, Config{
			CheckpointPath:  path,
			CheckpointEvery: 7,
			Detect:          netwide.DefaultDetectOptions(),
			Stream:          cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	// The second kill comes once the bin after a refit-due bin has opened,
	// so the refit-due bin (half + 36j − 1) is the last one closed.
	dueKill := half + cfg.RefitEvery*(2*(bins-half)/3/cfg.RefitEvery)
	srv := newSrv()
	from := half
	for i, kill := range []int{half + (bins-half)/3, dueKill} {
		feedBins(t, srv, ds, from, kill, 5)
		if kill == dueKill {
			if err := srv.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
		}
		srv.Kill()
		srv = newSrv()
		st := srv.Stats()
		if !st.Restored || st.RestoreErr != "" {
			t.Fatalf("restart %d did not restore: %+v", i, st)
		}
		if kill == dueKill && st.LastClosed != dueKill-1 {
			t.Fatalf("restart %d resumed after bin %d, want the refit-due bin %d", i, st.LastClosed, dueKill-1)
		}
		from = st.LastClosed + 1
	}
	feedBins(t, srv, ds, from, bins, 0)
	drainOK(t, srv)

	st := srv.Stats()
	if st.LostRecords != 0 || st.BadPackets != 0 || st.LateRecords != 0 || st.Unroutable != 0 || st.WildRecords != 0 {
		t.Fatalf("kill/restart cycles took ingest losses: %+v", st)
	}
	if st.DegradedErr != "" || st.Err != "" {
		t.Fatalf("daemon ended unhealthy: %+v", st)
	}
	for _, fr := range st.ModelFreshness {
		if want := uint64((bins - half) / cfg.RefitEvery); fr.Generation != want {
			t.Fatalf("measure %s ended on generation %d, want %d", fr.Measure, fr.Generation, want)
		}
	}
	dk, rk := sortedKeys(srv.Anomalies()), sortedKeys(replayed)
	if len(dk) != len(rk) {
		t.Fatalf("killed-twice daemon characterized %d anomalies, Replay %d:\n daemon %v\n replay %v", len(dk), len(rk), dk, rk)
	}
	for i := range rk {
		if dk[i] != rk[i] {
			t.Errorf("anomaly %d differs:\n replay %s\n daemon %s", i, rk[i], dk[i])
		}
	}
}

func sortedKeys(as []netwide.Anomaly) []string {
	keys := make([]string, len(as))
	for i, a := range as {
		keys[i] = anomalyKey(a)
	}
	sort.Strings(keys)
	return keys
}

// TestChaosDiskFullDegradesNotDies: checkpoint writes failing on a full
// disk must not take the collector down — ingest continues, the failure is
// counted and surfaced on /stats, the previous snapshot stays intact, and
// the first successful write after the disk clears heals the error.
func TestChaosDiskFullDegradesNotDies(t *testing.T) {
	run := testRun(t)
	ds := run.Dataset()
	path := filepath.Join(t.TempDir(), "daemon.nwcp")
	inj := fault.NewInjector()
	srv, err := New(run, Config{
		CheckpointPath:  path,
		CheckpointEvery: 1,
		Faults:          inj,
		Stream:          parityStream(run),
	})
	if err != nil {
		t.Fatal(err)
	}

	feedBins(t, srv, ds, 0, 4, 0)
	awaitSnapshot(srv)
	healthy := srv.Stats()
	if healthy.CheckpointsWritten == 0 || healthy.CheckpointErr != "" {
		t.Fatalf("healthy cadence: %+v", healthy)
	}

	inj.Arm(checkpoint.FaultWrite, fault.Fault{Err: fault.ErrDiskFull})
	feedBins(t, srv, ds, 4, 8, 0)
	awaitSnapshot(srv)
	st := srv.Stats()
	if st.CheckpointErrors == 0 || !strings.Contains(st.CheckpointErr, "disk full") {
		t.Fatalf("full disk not surfaced: %+v", st)
	}
	if st.CheckpointsWritten != healthy.CheckpointsWritten || st.LastCheckpointBin != healthy.LastCheckpointBin {
		t.Fatalf("snapshot bookkeeping advanced during the outage: %+v", st)
	}
	if srv.Err() != nil {
		t.Fatalf("full disk killed the daemon: %v", srv.Err())
	}
	if st.Records <= healthy.Records || st.BinsClosed <= healthy.BinsClosed {
		t.Fatalf("ingest stalled during the disk outage: %+v", st)
	}
	// The snapshot on disk is still the pre-outage one, and still restores.
	onDisk, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatalf("previous snapshot unreadable after failed writes: %v", err)
	}
	if onDisk.Server.LastClosed != healthy.LastCheckpointBin {
		t.Fatalf("on-disk snapshot covers bin %d, want pre-outage %d", onDisk.Server.LastClosed, healthy.LastCheckpointBin)
	}

	inj.Disarm(checkpoint.FaultWrite)
	feedBins(t, srv, ds, 8, 10, 0)
	awaitSnapshot(srv)
	st = srv.Stats()
	if st.CheckpointErr != "" || st.CheckpointsWritten <= healthy.CheckpointsWritten {
		t.Fatalf("disk recovery did not heal the error: %+v", st)
	}
	if st.LastCheckpointBin <= healthy.LastCheckpointBin {
		t.Fatalf("snapshot cursor stuck after recovery: %+v", st)
	}
	drainOK(t, srv)
}

// TestChaosTornWritePreservesSnapshot: a write torn mid-envelope (power
// cut, full filesystem) must error, count, and leave the previous snapshot
// both present and restorable — the atomic-replace contract, observed from
// the daemon rather than the file layer.
func TestChaosTornWritePreservesSnapshot(t *testing.T) {
	run := testRun(t)
	ds := run.Dataset()
	path := filepath.Join(t.TempDir(), "daemon.nwcp")
	inj := fault.NewInjector()
	srv, err := New(run, Config{
		CheckpointPath:  path,
		CheckpointEvery: 1 << 30, // CheckpointNow drives every snapshot
		Faults:          inj,
		Stream:          parityStream(run),
	})
	if err != nil {
		t.Fatal(err)
	}
	feedBins(t, srv, ds, 0, 3, 0)
	if err := srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	good := srv.Stats().LastCheckpointBin

	inj.ArmTornWrite(checkpoint.FaultWrite, 100)
	feedBins(t, srv, ds, 3, 5, 0)
	if err := srv.CheckpointNow(); err == nil {
		t.Fatal("torn write reported success")
	}
	if inj.Trips(checkpoint.FaultWrite) == 0 {
		t.Fatal("torn-write fault never fired")
	}
	st := srv.Stats()
	if st.CheckpointErrors != 1 || st.CheckpointErr == "" || st.LastCheckpointBin != good {
		t.Fatalf("torn write misaccounted: %+v", st)
	}
	onDisk, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatalf("previous snapshot unreadable after torn write: %v", err)
	}
	if onDisk.Server.LastClosed != good {
		t.Fatalf("torn write replaced the snapshot (covers %d, want %d)", onDisk.Server.LastClosed, good)
	}

	inj.Disarm(checkpoint.FaultWrite)
	if err := srv.CheckpointNow(); err != nil {
		t.Fatalf("snapshot after disarm: %v", err)
	}
	if st := srv.Stats(); st.CheckpointErr != "" || st.LastCheckpointBin <= good {
		t.Fatalf("recovery snapshot misaccounted: %+v", st)
	}
	drainOK(t, srv)
}

// TestChaosSlowRefitDuringDrain: a refit that is still grinding (injected
// latency) when the operator drains must neither deadlock the drain nor
// fail it — the drain waits out the slowed lanes and completes.
func TestChaosSlowRefitDuringDrain(t *testing.T) {
	run := testRun(t)
	ds := run.Dataset()
	half := run.Bins() / 2
	inj := fault.NewInjector()
	inj.Arm(netwide.FaultRefit, fault.Fault{Delay: 500 * time.Millisecond})
	srv, err := New(run, Config{
		Faults: inj,
		Stream: netwide.StreamConfig{
			TrainBins:  half,
			BatchSize:  16,
			RefitEvery: 36,
			Window:     half,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Feed just past the refit point (each lane starts its first, slowed
	// refit after its 36th observed bin, and its later bins queue behind
	// it) and drain immediately — the refits are still sleeping when the
	// drain starts.
	feedBins(t, srv, ds, half, half+40, 0)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- srv.Drain(ctx)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain during slow refit: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("drain deadlocked behind a slow refit")
	}
	if st := srv.Stats(); st.DegradedErr != "" || st.Err != "" {
		t.Fatalf("latency-only injection degraded the daemon: %+v", st)
	}
}

// TestChaosCheckpointTimer: with no bins closing (dead exporters), the
// wall-clock timer is the only thing that gets state to disk. The manual
// clock makes "the timer went off" a synchronous test event.
func TestChaosCheckpointTimer(t *testing.T) {
	run := testRun(t)
	ds := run.Dataset()
	path := filepath.Join(t.TempDir(), "daemon.nwcp")
	clock := fault.NewManualClock()
	srv, err := New(run, Config{
		CheckpointPath:     path,
		CheckpointEvery:    1 << 30, // bin cadence off: the timer is on trial
		CheckpointInterval: time.Hour,
		Clock:              clock,
		Stream:             parityStream(run),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	feedBins(t, srv, ds, 0, 2, 0)
	if st := srv.Stats(); st.CheckpointsWritten != 0 {
		t.Fatalf("bin cadence fired with CheckpointEvery maxed: %+v", st)
	}
	clock.Tick()
	deadline := time.Now().Add(30 * time.Second)
	for srv.Stats().CheckpointsWritten == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timer tick produced no snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := srv.Stats(); st.LastCheckpointBin != st.LastClosed {
		t.Fatalf("timer snapshot cursor %d, want last closed %d", st.LastCheckpointBin, st.LastClosed)
	}
	written := srv.Stats().CheckpointsWritten
	drainOK(t, srv)
	// The drain stopped the timer and wrote the final snapshot.
	if st := srv.Stats(); st.CheckpointsWritten != written+1 {
		t.Fatalf("drain wrote %d snapshots on top of %d, want exactly one final", st.CheckpointsWritten-written, written)
	}
	if _, err := checkpoint.ReadFile(path); err != nil {
		t.Fatal(err)
	}
}

// TestChaosClockSkewAcrossRestart: a stranded watermark (hostile or
// clock-skewed far-future first packet) snapshotted and then restored must
// not wedge the restarted daemon — the watermark-reset quorum machinery
// has to work on restored state exactly as it does on live state.
func TestChaosClockSkewAcrossRestart(t *testing.T) {
	run := testRun(t)
	path := filepath.Join(t.TempDir(), "daemon.nwcp")
	cfg := Config{CheckpointPath: path, Stream: parityStream(run)}
	srv, err := New(run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := collectRecords(t, run, 10)
	srv.IngestPacket(pkt(t, 0, 1000, recs)) // skewed first packet strands the watermark
	if err := srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	srv.Kill()

	srv, err = New(run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if !st.Restored || st.Watermark != 1000 || st.BinsOpen != 1 {
		t.Fatalf("restore did not carry the stranded state: %+v", st)
	}
	// Legitimate traffic far below the restored watermark: the quorum must
	// re-anchor it and bin close must resume, same as on a live daemon.
	seq := uint32(10)
	for bin := 0; bin < 12; bin++ {
		srv.IngestPacket(pkt(t, seq, bin, recs))
		seq += uint32(len(recs))
	}
	st = srv.Stats()
	if st.WatermarkResets != 1 {
		t.Fatalf("restored watermark never re-anchored: %+v", st)
	}
	if st.Watermark >= 1000 || st.BinsClosed == 0 {
		t.Fatalf("bin close never resumed after the reset: %+v", st)
	}
	if st.WildRecords != uint64(len(recs)) {
		t.Errorf("stranded bin's records not discarded as wild: %+v", st)
	}
	drainOK(t, srv)
}

// TestChaosCorruptCheckpointColdStarts is the server-level half of the
// hostile-snapshot suite (the envelope half lives in internal/checkpoint):
// whatever is on disk at startup — torn, bit-flipped, garbage, a snapshot
// from a differently configured daemon, or a semantically inconsistent
// one — New must come up cold, counting the fallback and carrying the
// reason on /stats, and the daemon must ingest normally. It must never
// panic and never trust the file.
func TestChaosCorruptCheckpointColdStarts(t *testing.T) {
	run := testRun(t)
	base := Config{Stream: parityStream(run)}

	// One genuine snapshot to corrupt: a short run, snapshotted, killed.
	seedPath := filepath.Join(t.TempDir(), "seed.nwcp")
	seedCfg := base
	seedCfg.CheckpointPath = seedPath
	srv, err := New(run, seedCfg)
	if err != nil {
		t.Fatal(err)
	}
	feedBins(t, srv, run.Dataset(), 0, 3, 0)
	srv.Kill()
	raw, err := os.ReadFile(seedPath)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := checkpoint.ReadFile(seedPath)
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(f func(*checkpoint.State)) func(string) {
		return func(path string) {
			st := *valid
			f(&st)
			if err := checkpoint.WriteFile(path, &st, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	writeRaw := func(b []byte) func(string) {
		return func(path string) {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	bitflip := append([]byte(nil), raw...)
	bitflip[len(bitflip)/2] ^= 0x10

	cases := []struct {
		name  string
		write func(path string)
		want  string // a substring of Stats().RestoreErr
	}{
		{"truncated mid-payload", writeRaw(raw[:len(raw)/2]), "truncated or corrupt"},
		{"truncated mid-header", writeRaw(raw[:9]), "truncated header"},
		{"empty file", writeRaw(nil), "truncated header"},
		{"bit flip", writeRaw(bitflip), "checksum mismatch"},
		{"garbage", writeRaw([]byte("notnwcp: a week of garbage")), "bad magic"},
		{"wrong detector config", mutate(func(st *checkpoint.State) { st.K += 2 }), "the fingerprint fixes K="},
		{"wrong topology", mutate(func(st *checkpoint.State) { st.Topology = "geant" }), `topology "geant"`},
		{"ledger shorter than emitted", mutate(func(st *checkpoint.State) { st.Stream.Emitted += 3 }), "detector emitted 3"},
		{"open bin behind cursor", mutate(func(st *checkpoint.State) {
			st.Server.OpenBins = append(st.Server.OpenBins, checkpoint.OpenBin{
				Bin:     st.Server.LastClosed,
				Bytes:   make([]float64, st.ODPairs),
				Packets: make([]float64, st.ODPairs),
				Flows:   make([]float64, st.ODPairs),
			})
		}), "at or behind its seal point"},
		// An enabled format, so the cursor reaches the ring-shape check.
		{"dedupe ring out of shape", mutate(func(st *checkpoint.State) {
			st.Server.Engines = []checkpoint.EngineState{{Format: uint8(flowwire.FormatNetFlowV5), ID: 0, Recent: make([]uint32, 200), Pos: 0}}
		}), "dedupe ring out of shape"},
		{"seal point behind last closed", mutate(func(st *checkpoint.State) { st.Server.SealedThrough = st.Server.LastClosed - 1 }), "behind last closed"},
		// A snapshot from a daemon running the other model lifecycle: the
		// lane states would carry tracker vectors this refit daemon cannot
		// adopt, so the fingerprint rejects it up front.
		{"wrong model lifecycle", mutate(func(st *checkpoint.State) { st.Updater = "incremental" }), "lifecycle"},
		// A model keeps the top min(eigenvalues, 2K+16) axes; a basis one
		// axis short (or the whole p x p one a version-6 file held) is
		// refused by the lane's restore.
		{"lane basis of the wrong width", mutate(func(st *checkpoint.State) {
			lanes := slices.Clone(st.Stream.Lanes)
			m := &lanes[0].Model
			m.Components = m.Components[:len(m.Components)-len(m.Mean)]
			st.Stream.Lanes = lanes
		}), "basis values, want"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "daemon.nwcp")
			tc.write(path)
			cfg := base
			cfg.CheckpointPath = path
			srv, err := New(run, cfg)
			if err != nil {
				t.Fatalf("bad snapshot kept the collector down: %v", err)
			}
			st := srv.Stats()
			if st.CheckpointFallbacks != 1 || st.RestoreErr == "" {
				t.Fatalf("fallback not accounted: %+v", st)
			}
			if !strings.Contains(st.RestoreErr, tc.want) {
				t.Fatalf("cold start for %q, want a reason containing %q", st.RestoreErr, tc.want)
			}
			if st.Restored || st.Records != 0 || st.LastClosed != -1 {
				t.Fatalf("cold start leaked snapshot state: %+v", st)
			}
			// The cold daemon works: ingest a little and shut down clean
			// (overwriting the bad file with a good snapshot on the way out).
			feedBins(t, srv, run.Dataset(), 0, 2, 0)
			if srv.Err() != nil {
				t.Fatalf("cold-started daemon unhealthy: %v", srv.Err())
			}
			drainOK(t, srv)
			if _, err := checkpoint.ReadFile(path); err != nil {
				t.Fatalf("drain did not replace the bad snapshot: %v", err)
			}
		})
	}

	t.Run("no snapshot at all", func(t *testing.T) {
		cfg := base
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "never-written.nwcp")
		srv, err := New(run, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st := srv.Stats(); st.CheckpointFallbacks != 0 || st.RestoreErr != "" {
			t.Fatalf("a missing file is a first boot, not a fallback: %+v", st)
		}
		drainOK(t, srv)
	})

	// A replayed clean-drain snapshot must restore with zero staleness.
	t.Run("clean drain restores exactly", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "daemon.nwcp")
		cfg := base
		cfg.CheckpointPath = path
		first, err := New(run, cfg)
		if err != nil {
			t.Fatal(err)
		}
		feedBins(t, first, run.Dataset(), 0, 4, 0)
		drainOK(t, first)
		closed := first.Stats().BinsClosed

		second, err := New(run, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := second.Stats()
		if !st.Restored || st.BinsClosed != closed || st.BinsOpen != 0 {
			t.Fatalf("clean-drain restore lost bins: %+v (want %d closed)", st, closed)
		}
		if len(second.Anomalies()) != len(first.Anomalies()) {
			t.Fatalf("restored ledger %d anomalies, drained daemon had %d", len(second.Anomalies()), len(first.Anomalies()))
		}
		drainOK(t, second)
	})
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestKillClassifiesNothing: a kill drops the ledger, so the events the
// aggregator still held open must not be classified on the way down — each
// classification regenerates the event's flow records, and that was most of
// a kill's cost. The drained twin shows the same stop point does hold open
// events, and that a drain still classifies them.
func TestKillClassifiesNothing(t *testing.T) {
	run := testRun(t)
	// Stop feeding inside the first anomaly of three bins or more: its first
	// bins are closed and scored, its last are not, so the aggregator holds
	// it open.
	if err := run.Detect(netwide.DefaultDetectOptions()); err != nil {
		t.Fatal(err)
	}
	stopAt := -1
	for _, a := range run.Characterize() {
		if a.EndBin-a.StartBin >= 2 {
			stopAt = a.EndBin
			break
		}
	}
	if stopAt < 0 {
		t.Fatal("no anomaly of three bins in the run")
	}
	stopped := func() *Server {
		srv, err := New(run, Config{Stream: parityStream(run)})
		if err != nil {
			t.Fatal(err)
		}
		feedBins(t, srv, run.Dataset(), 0, stopAt, 0)
		// Every closed bin's verdict consumed: what is classified from here
		// on is the shutdown's doing.
		for deadline := time.Now().Add(30 * time.Second); srv.Stats().ScoringBacklogBins > 0; {
			if time.Now().After(deadline) {
				t.Fatal("detector never caught up with the fed bins")
			}
			time.Sleep(time.Millisecond)
		}
		return srv
	}

	srv := stopped()
	before := classify.Classified()
	drainOK(t, srv)
	if classify.Classified() == before {
		t.Fatalf("no event was open at bin %d: the drain classified nothing and the test shows nothing", stopAt)
	}

	srv = stopped()
	before = classify.Classified()
	srv.Kill()
	if n := classify.Classified() - before; n != 0 {
		t.Fatalf("Kill classified %d events for a ledger nobody will read", n)
	}
}
