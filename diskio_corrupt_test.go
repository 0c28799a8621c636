package netwide_test

// Companion to TestDatasetFileRoundTrip: the same on-disk workflow under
// hostile conditions. A .nwds file handed to nwserve/anomalyreport may be
// truncated (interrupted copy), bit-rotted, or simply not a dataset at all;
// LoadRun must refuse all of them with an error, never panic or return a
// silently mis-read run.

import (
	"bytes"
	"strings"
	"testing"

	"netwide"
)

func savedRunBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := quickRun(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadRunTruncated(t *testing.T) {
	raw := savedRunBytes(t)
	for _, n := range []int{0, 1, 15, 16, 1024, len(raw) / 2, len(raw) - 1} {
		if _, err := netwide.LoadRun(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("run truncated to %d of %d bytes loaded silently", n, len(raw))
		}
	}
}

func TestLoadRunBitFlip(t *testing.T) {
	raw := savedRunBytes(t)
	for _, off := range []int{20, len(raw) / 4, len(raw) / 2, 3 * len(raw) / 4} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x08
		_, err := netwide.LoadRun(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("bit flip at %d loaded silently", off)
		}
		if !strings.Contains(err.Error(), "checksum") && !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("bit flip at %d: undiagnostic error %q", off, err)
		}
	}
}

func TestLoadRunGarbage(t *testing.T) {
	if _, err := netwide.LoadRun(strings.NewReader("this is not a dataset file")); err == nil {
		t.Fatal("garbage loaded silently")
	}
	if _, err := netwide.LoadRun(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty file loaded silently")
	}
}
