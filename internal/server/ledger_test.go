package server

// The anomaly ledger lives in its own append-only file beside the snapshot
// (checkpoint.LedgerPath): a restore reads none of it, the first reader
// loads and checks it, and a ledger that fails the check is reported, never
// served, while detection carries on.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"netwide"
	"netwide/internal/checkpoint"
)

// ledgerDaemon feeds bins [0, bins) to a fresh daemon checkpointing to
// path and drains it, so the snapshot and its ledger file hold every
// anomaly it characterized, which it returns.
func ledgerDaemon(t *testing.T, run *netwide.Run, path string, bins int) []netwide.Anomaly {
	t.Helper()
	srv, err := New(run, Config{CheckpointPath: path, CheckpointEvery: 7, Stream: parityStream(run)})
	if err != nil {
		t.Fatal(err)
	}
	feedBins(t, srv, run.Dataset(), 0, bins, 0)
	drainOK(t, srv)
	anoms := srv.Anomalies()
	if len(anoms) == 0 {
		t.Fatalf("%d bins characterized nothing: the ledger checks are vacuous", bins)
	}
	return anoms
}

// TestRestoredLedgerCorruptIsNotServed: a ledger file corrupted in place,
// its size kept, does not stop the restore — the daemon resumes detection
// where the snapshot left it — and nothing reads the ledger until its
// first reader, which gets the checksum error and no anomaly. /stats then
// carries the reason, /api/v1/anomalies answers with it, and a restart
// from the daemon's own later snapshot reports it again: the checksum is
// carried forward, never recomputed from the bad bytes.
func TestRestoredLedgerCorruptIsNotServed(t *testing.T) {
	run := testRun(t)
	path := filepath.Join(t.TempDir(), "daemon.nwcp")
	const bins = 300
	want := ledgerDaemon(t, run, path, bins)
	lpath := checkpoint.LedgerPath(path)
	good, err := os.ReadFile(lpath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{CheckpointPath: path, CheckpointEvery: 7, Stream: parityStream(run)}

	// Intact, the restored ledger reads back whole.
	srv, err := New(run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Anomalies(); len(got) != len(want) || anomalyKey(got[len(got)-1]) != anomalyKey(want[len(want)-1]) {
		t.Fatalf("restored ledger of %d anomalies, the drained daemon had %d", len(got), len(want))
	}
	srv.Kill()

	bad := bytes.Clone(good)
	bad[len(bad)/2] ^= 0x20
	if err := os.WriteFile(lpath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err = New(run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if !st.Restored || st.RestoredBin != bins-1 || st.RestoreErr != "" || st.Anomalies != len(want) {
		t.Fatalf("a corrupt ledger of the right size did not restore through bin %d with %d anomalies: %+v", bins-1, len(want), st)
	}
	if st.LedgerErr != "" {
		t.Fatalf("the ledger was checked before anyone read it: %q", st.LedgerErr)
	}
	if got := srv.Anomalies(); got != nil {
		t.Fatalf("a corrupt ledger served %d anomalies", len(got))
	}
	if st := srv.Stats(); !strings.Contains(st.LedgerErr, "ledger checksum mismatch") {
		t.Fatalf("the first read left ledger_err %q", st.LedgerErr)
	}
	rec := httptest.NewRecorder()
	srv.handleAnomalies(rec, httptest.NewRequest(http.MethodGet, "/api/v1/anomalies", nil))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "ledger checksum mismatch") {
		t.Fatalf("/api/v1/anomalies answered %d %q", rec.Code, rec.Body.String())
	}

	// Detection carries on from the restored state.
	feedBins(t, srv, run.Dataset(), bins, bins+50, 0)
	drainOK(t, srv)
	if st := srv.Stats(); st.BinsClosed != bins+50 || st.Err != "" || st.Anomalies < len(want) {
		t.Fatalf("the daemon did not carry on past the corrupt ledger: %+v", st)
	}
	again, err := New(run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := again.Stats(); !st.Restored || again.Anomalies() != nil || !strings.Contains(again.Stats().LedgerErr, "checksum mismatch") {
		t.Fatalf("a restart from the later snapshot served the corrupt ledger: %+v", again.Stats())
	}
	again.Kill()
}

// TestLedgerFileShorterColdStarts: a ledger file shorter than its snapshot
// counts — cut, or gone — forces a cold start with the reason, and the
// cold daemon cuts the file to nothing before it appends its own first
// anomaly.
func TestLedgerFileShorterColdStarts(t *testing.T) {
	run := testRun(t)
	path := filepath.Join(t.TempDir(), "daemon.nwcp")
	ledgerDaemon(t, run, path, 300)
	lpath := checkpoint.LedgerPath(path)
	good, err := os.ReadFile(lpath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{CheckpointPath: path, CheckpointEvery: 7, Stream: parityStream(run)}
	for name, cut := range map[string]func() error{
		"one byte short": func() error { return os.WriteFile(lpath, good[:len(good)-1], 0o644) },
		"gone":           func() error { return os.Remove(lpath) },
	} {
		if err := cut(); err != nil {
			t.Fatal(err)
		}
		srv, err := New(run, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := srv.Stats()
		if st.Restored || st.CheckpointFallbacks != 1 || !strings.Contains(st.RestoreErr, "truncated or lost ledger") {
			t.Fatalf("%s: a short ledger file did not cold-start with its reason: %+v", name, st)
		}
		srv.Kill()
	}
	// A cold daemon's ledger file starts over.
	if err := os.WriteFile(lpath, good[:len(good)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := ledgerDaemon(t, run, path, 300)
	st, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := st.Anomalies.Anomalies(); err != nil || len(got) != len(fresh) {
		t.Fatalf("the cold daemon's ledger file reads %d anomalies (%v), it characterized %d", len(got), err, len(fresh))
	}
}

// TestLedgerUnderConcurrentReaders races everything that touches the
// ledger at once: the verdict consumer appending anomalies, the writer
// goroutine appending them to the file under a snapshot every bin, and
// readers — Anomalies and the /api/v1/anomalies handler — among them the
// first ones, all loading the restored ledger at the same moment. Every
// read must be the restored ledger followed by what the daemon appended
// since, and after the drain a restart must read back what the drain's
// snapshot counted.
func TestLedgerUnderConcurrentReaders(t *testing.T) {
	run := testRun(t)
	path := filepath.Join(t.TempDir(), "daemon.nwcp")
	cfg := Config{CheckpointPath: path, CheckpointEvery: 1, Stream: parityStream(run)}

	// A restorable snapshot whose ledger holds anomalies the detector never
	// made: a pristine snapshot with a ledger appended, and Emitted to
	// match.
	srv, err := New(run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	srv.Kill()
	st, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const restored = 500
	var planted []netwide.Anomaly
	for i := range restored {
		planted = append(planted, netwide.Anomaly{Class: fmt.Sprintf("PLANTED-%d", i), ODs: []string{"a->b"}, StartBin: -i})
	}
	st.Anomalies.Append(planted...)
	st.Stream.Emitted = restored
	if err := checkpoint.WriteFile(path, st, nil); err != nil {
		t.Fatal(err)
	}

	srv, err = New(run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); !st.Restored || st.Anomalies != restored {
		t.Fatalf("the planted snapshot did not restore: %+v", st)
	}
	check := func(anoms []netwide.Anomaly) {
		if len(anoms) < restored {
			t.Errorf("a read returned %d anomalies, fewer than the %d restored", len(anoms), restored)
			return
		}
		for _, i := range []int{0, restored / 2, restored - 1} {
			if anoms[i].Class != planted[i].Class {
				t.Errorf("anomaly %d reads %q, want %q", i, anoms[i].Class, planted[i].Class)
				return
			}
		}
		for _, a := range anoms[restored:] {
			if strings.HasPrefix(a.Class, "PLANTED") {
				t.Errorf("a planted anomaly after the restored ones")
				return
			}
		}
	}
	start := make(chan struct{})
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := range 4 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			<-start // the first readers load the restored ledger together
			for {
				if r%2 == 0 {
					check(srv.Anomalies())
				} else {
					rec := httptest.NewRecorder()
					srv.handleAnomalies(rec, httptest.NewRequest(http.MethodGet, "/api/v1/anomalies", nil))
					if rec.Code != http.StatusOK {
						t.Errorf("/api/v1/anomalies answered %d: %s", rec.Code, rec.Body.String())
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	close(start)
	const bins = 200
	feedBins(t, srv, run.Dataset(), 0, bins, 0)
	close(stop)
	readers.Wait()
	drainOK(t, srv)
	final := srv.Anomalies()
	check(final)
	if srv.Stats().CheckpointsWritten < 4 {
		t.Fatalf("%d snapshots over %d bins: the writer hardly raced", srv.Stats().CheckpointsWritten, bins)
	}
	if len(final) == restored {
		t.Fatalf("%d bins appended no anomaly: the appends did not race", bins)
	}

	again, err := New(run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Kill()
	// The drain's snapshot holds the ledger as of its barrier; the events
	// still open then were classified after it, and the snapshot keeps them
	// open in the aggregator instead.
	back := again.Anomalies()
	if len(back) <= restored || len(back) > len(final) {
		t.Fatalf("the restart reads %d anomalies, the drained daemon had %d (%d restored)", len(back), len(final), restored)
	}
	for i := range back {
		if anomalyKey(back[i]) != anomalyKey(final[i]) {
			t.Fatalf("anomaly %d reads back as %s, was %s", i, anomalyKey(back[i]), anomalyKey(final[i]))
		}
	}
}
