package netwide_test

import (
	"os"
	"path/filepath"
	"testing"

	"netwide"
)

// TestDatasetFileRoundTrip exercises the on-disk workflow of the command
// line tools: abilenegen writes a dataset file, anomalyreport and
// streamdetect read it back.
func TestDatasetFileRoundTrip(t *testing.T) {
	run := quickRun(t)
	path := filepath.Join(t.TempDir(), "abilene.nwds")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// 3 matrices x 2016 bins x 121 ODs x 8 bytes ~ 5.9MB plus gob framing.
	if st.Size() < 1<<20 {
		t.Fatalf("dataset file suspiciously small: %d bytes", st.Size())
	}
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	run2, err := netwide.LoadRun(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := run2.Detect(netwide.DefaultDetectOptions()); err != nil {
		t.Fatal(err)
	}
	if len(run2.Events()) != len(run.Events()) {
		t.Fatalf("events after disk round trip: %d != %d", len(run2.Events()), len(run.Events()))
	}
}
