package server

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the /stats golden document")

// verdictLagMask is the one field the /stats golden masks: verdict_lag_ms
// is the wall-clock time the last bin took from submit to ledger, so it
// moves from run to run. Every other field is a function of the feed.
var verdictLagMask = regexp.MustCompile(`"verdict_lag_ms": [^,\n]+`)

// TestStatsGolden pins the /api/v1/stats document of a default-config
// daemon after a fixed feed — the first 60 bins of the shared run as
// in-order NetFlow v5, one undecodable datagram, then Drain — byte for
// byte, with only verdict_lag_ms masked. A field that appears, vanishes,
// is renamed or counts differently fails here. Rewrite the golden with
// -update only for a change that means to move the document, and list the
// diff as a behaviour change.
func TestStatsGolden(t *testing.T) {
	run := testRun(t)
	srv, err := New(run, Config{})
	if err != nil {
		t.Fatal(err)
	}
	feedBins(t, srv, run.Dataset(), 0, 60, 0)
	srv.IngestPacket([]byte{0, 5, 0, 1}) // a v5 version word and a truncated header
	drainOK(t, srv)

	rec := httptest.NewRecorder()
	srv.handleStats(rec, httptest.NewRequest("GET", "/api/v1/stats", nil))
	got := verdictLagMask.ReplaceAll(rec.Body.Bytes(), []byte(`"verdict_lag_ms": "masked"`))

	path := filepath.Join("testdata", "stats_1x1.golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("/stats document moved (verdict_lag_ms masked):\n got %s\nwant %s", got, want)
	}
}
