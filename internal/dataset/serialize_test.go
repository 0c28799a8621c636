package dataset

// Corrupt-file hardening: Load consumes untrusted bytes, so every failure
// mode — truncation, bit flips, hostile configs, poisoned cells — must
// come back as a descriptive error, never a panic, an absurd allocation,
// or a silently wrong dataset. The crafted-payload cases go through the
// legacy (bare gob) path on purpose: it has no checksum to recompute, so a
// test can hand Load arbitrary decoded content and exercise the semantic
// validation behind the envelope.

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"
	"time"

	"netwide/internal/anomaly"
)

// tinyDataset builds a structurally complete 1-week dataset without
// running the generator: the matrices stay zero except for a marker cell.
func tinyDataset(t *testing.T) *Dataset {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Weeks = 1
	d, err := prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.allocMatrices()
	d.X[Bytes].RowView(7)[11] = 42.5
	d.RawRecords = 1234
	d.UnresolvedRecords = 56
	return d
}

// fileBytes serializes d with Save (checksummed envelope).
func fileBytes(t *testing.T, d *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// legacyBytes encodes a fileFormat as a bare gob stream — the pre-envelope
// on-disk format, and the door for crafted-content tests.
func legacyBytes(t *testing.T, ff *fileFormat) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ff); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tinyFileFormat is the fileFormat Save would write for tinyDataset,
// exposed for mutation.
func tinyFileFormat(t *testing.T, d *Dataset) *fileFormat {
	t.Helper()
	ff := &fileFormat{
		Version:           fileVersion,
		Cfg:               d.Cfg,
		Bins:              d.Bins,
		RawRecords:        d.RawRecords,
		UnresolvedRecords: d.UnresolvedRecords,
	}
	for m := Measure(0); m < NumMeasures; m++ {
		rows := make([][]float64, d.Bins)
		for i := 0; i < d.Bins; i++ {
			rows[i] = d.X[m].Row(i)
		}
		ff.Rows[m] = rows
	}
	return ff
}

func TestEnvelopeRoundTrip(t *testing.T) {
	d := tinyDataset(t)
	got, err := Load(bytes.NewReader(fileBytes(t, d)))
	if err != nil {
		t.Fatal(err)
	}
	if v := got.X[Bytes].RowView(7)[11]; v != 42.5 {
		t.Fatalf("marker cell %v after round trip", v)
	}
	if got.RawRecords != 1234 || got.UnresolvedRecords != 56 {
		t.Fatalf("counters %d/%d after round trip", got.RawRecords, got.UnresolvedRecords)
	}
}

func TestLoadLegacyFormat(t *testing.T) {
	d := tinyDataset(t)
	got, err := Load(bytes.NewReader(legacyBytes(t, tinyFileFormat(t, d))))
	if err != nil {
		t.Fatalf("legacy bare-gob file rejected: %v", err)
	}
	if v := got.X[Bytes].RowView(7)[11]; v != 42.5 {
		t.Fatalf("marker cell %v after legacy load", v)
	}
}

func TestLoadDetectsBitFlips(t *testing.T) {
	raw := fileBytes(t, tinyDataset(t))
	// Flip one bit at a spread of payload offsets: every flip must be
	// caught by the checksum — this is exactly the corruption gob decodes
	// "successfully" into wrong floats.
	for _, off := range []int{16, 64, len(raw) / 3, len(raw) / 2, len(raw) - 2} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x10
		_, err := Load(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("bit flip at offset %d loaded silently", off)
		}
		if !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("bit flip at offset %d: error %q does not name the checksum", off, err)
		}
	}
	// Flipping the stored digest itself must also fail.
	bad := append([]byte(nil), raw...)
	bad[9] ^= 0xFF
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted digest accepted")
	}
}

func TestLoadTruncated(t *testing.T) {
	raw := fileBytes(t, tinyDataset(t))
	for _, n := range []int{0, 1, 7, 15, 16, 100, len(raw) / 2, len(raw) - 1} {
		if _, err := Load(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("file truncated to %d bytes loaded silently", n)
		}
	}
}

func TestLoadGarbage(t *testing.T) {
	for _, junk := range [][]byte{
		[]byte("not a dataset"),
		bytes.Repeat([]byte{0xFF}, 4096),
		[]byte(fileMagic), // envelope magic with nothing behind it
	} {
		if _, err := Load(bytes.NewReader(junk)); err == nil {
			t.Fatalf("garbage %q loaded silently", junk[:min(len(junk), 16)])
		}
	}
}

func TestLoadRejectsHostileContent(t *testing.T) {
	d := tinyDataset(t)
	cases := []struct {
		name   string
		mutate func(ff *fileFormat)
		want   string
	}{
		{"wrong version", func(ff *fileFormat) { ff.Version = 99 }, "version"},
		{"absurd weeks", func(ff *fileFormat) { ff.Cfg.Weeks = 1 << 30; ff.Bins = 0 }, "bins"},
		{"bins inconsistent with weeks", func(ff *fileFormat) { ff.Bins = 7 }, "bins"},
		{"row count mismatch", func(ff *fileFormat) { ff.Rows[Packets] = ff.Rows[Packets][:9] }, "rows"},
		{"ragged row", func(ff *fileFormat) { ff.Rows[Flows][3] = ff.Rows[Flows][3][:5] }, "ragged"},
		{"nan cell", func(ff *fileFormat) {
			row := append([]float64(nil), ff.Rows[Bytes][5]...)
			row[2] = math.NaN()
			ff.Rows[Bytes][5] = row
		}, "NaN"},
		{"inf cell", func(ff *fileFormat) {
			row := append([]float64(nil), ff.Rows[Packets][5]...)
			row[2] = math.Inf(1)
			ff.Rows[Packets][5] = row
		}, "+Inf"},
		{"invalid sampling rate", func(ff *fileFormat) { ff.Cfg.SamplingRate = 1e-9 }, "sampling"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ff := tinyFileFormat(t, d)
			tc.mutate(ff)
			_, err := Load(bytes.NewReader(legacyBytes(t, ff)))
			if err == nil {
				t.Fatal("hostile content loaded silently")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestLoadBoundsTheSchedule: the anomaly schedule a dataset file stores
// drives start-up work, so Load refuses a count above anomaly.MaxCount and
// a schedule longer than the run, by name and limit, before any of that
// work runs. The probe is a 1-week file whose Alphas count alone once took
// seconds to load: 4·10⁶ ALPHA anomalies per 4 weeks. A schedule at the
// bound still loads.
func TestLoadBoundsTheSchedule(t *testing.T) {
	d := tinyDataset(t)
	sched := anomaly.DefaultSchedule(d.BG, 1, d.Cfg.Seed)
	cases := []struct {
		name   string
		mutate func(s *anomaly.ScheduleConfig)
		want   string // "" loads
	}{
		{"probe", func(s *anomaly.ScheduleConfig) { s.Alphas = 4_000_000 }, "Alphas count 4000000 exceeds limit 1500 per 4 weeks"},
		{"count past int", func(s *anomaly.ScheduleConfig) { s.Worms = math.MaxInt }, "Worms count"},
		{"weeks past the run", func(s *anomaly.ScheduleConfig) { s.Weeks = MaxWeeks }, "schedule weeks 1024 outside [1, 1]"},
		{"negative weeks", func(s *anomaly.ScheduleConfig) { s.Weeks = -1 }, "schedule weeks -1 outside [1, 1]"},
		{"every count at the bound", func(s *anomaly.ScheduleConfig) {
			s.Alphas, s.DOSes, s.DDOSes = anomaly.MaxCount, anomaly.MaxCount, anomaly.MaxCount
			s.Flashes, s.Scans, s.Worms = anomaly.MaxCount, anomaly.MaxCount, anomaly.MaxCount
			s.PtMults, s.Outages, s.IngressShifts = anomaly.MaxCount, anomaly.MaxCount, anomaly.MaxCount
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hostile := tinyDataset(t)
			hostile.Cfg.Schedule = sched
			tc.mutate(&hostile.Cfg.Schedule)
			file := fileBytes(t, hostile)
			start := time.Now()
			got, err := Load(bytes.NewReader(file))
			took := time.Since(start)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("a schedule at the bound was refused: %v", err)
				}
				if n, want := len(got.Ledger.Injectors), 9*anomaly.MaxCount/4; n != want {
					t.Fatalf("built %d anomalies, want %d", n, want)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one naming %q", err, tc.want)
			}
			if took > time.Second {
				t.Fatalf("refusal took %v: the bound must hold before the work", took)
			}
		})
	}
}
