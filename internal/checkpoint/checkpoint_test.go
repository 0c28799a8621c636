package checkpoint

// The checkpoint file is what stands between a crash and a week of lost
// characterization, and it is read at daemon startup from a disk that may
// have torn the last write. Everything here is the hostile-input suite in
// the diskio_corrupt house style: truncations at every envelope boundary,
// bit flips in header and payload, version skew, garbage — every one must
// come back as a descriptive error (the daemon's cue to cold-start), never
// a panic or a silently wrong snapshot.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"netwide"
	"netwide/internal/engine"
	"netwide/internal/events"
	"netwide/internal/fault"
)

// sampleState builds a tiny snapshot with every part of the format in it:
// two OD pairs, one measure, one incremental lane with a window and a
// tracker, an open bin, an engine cursor, a template, an open event, a
// buffered detection and one anomaly. TestGoldenBytes pins its bytes.
func sampleState() *State {
	return &State{
		Topology: "tiny",
		ODPairs:  2,
		Measures: 1,
		K:        1,
		Alpha:    0.001,
		Epoch:    1700000000,
		Formats:  []uint8{1, 3},
		Updater:  "incremental",
		Server: ServerState{
			Packets:    12345,
			Records:    67890,
			Watermark:  412,
			LastClosed: 411,
			BinsClosed: 412,
			AlarmBins:  7,
			OpenBins: []OpenBin{
				{Bin: 412, Records: 7, Bytes: []float64{1, 2}, Packets: []float64{3, 4}, Flows: []float64{5, 6}},
			},
			Engines: []EngineState{
				{Format: 1, ID: 3, Next: 90001, Recent: []uint32{88000, 89000, 90000}, Pos: 0, Charged: 30},
			},
			SealedThrough: 411,
			Protocols:     []ProtoState{{Format: 1, Packets: 12345, Records: 67890}},
			Templates:     []TemplateState{{Format: 3, Source: 9, ID: 256, Fields: []TemplateField{{ID: 8, Length: 4}, {ID: 1, Enterprise: 29305, Length: 8}}}},
		},
		Stream: netwide.StreamCheckpoint{
			Lanes: []engine.UpdaterState{{
				Kind: engine.UpdaterIncremental,
				Model: engine.ModelState{
					Opts: engine.Options{K: 1, Alpha: 0.001}, Gen: 2, Updates: 40,
					QLimit: 1.5, T2Limit: 9.25, N: 288, TotalVar: 3,
					Mean:        []float64{10, 20},
					Eigenvalues: []float64{2.5},
					Components:  []float64{0.6, 0.8},
				},
				Window:  [][]float64{{9, 19}, {11, 21}, {10, 20}},
				Since:   5,
				Tracker: &engine.TrackerState{N: 100, Horizon: 288, TotalVar: 3, Mean: []float64{10, 20}, Axes: [][]float64{{1.5, 2}}},
			}},
			Agg: events.AggregatorState{
				Open:    []events.Event{{Measures: events.SetB, StartBin: 409, EndBin: 410, ODs: []int{0, 1}, ODResidual: map[int]float64{1: -2.5, 0: 4}}},
				CurBin:  411,
				CurDets: []events.Detection{{Measure: 0, Bin: 411, ODs: []int{1}, Residuals: []float64{-1.25}}},
				Started: true,
			},
			LastBin: 411,
			Started: true,
			Emitted: 1,
		},
		Anomalies: ledgerOf(netwide.Anomaly{
			Class: "ALPHA", Measures: "BP", StartBin: 100, EndBin: 101, Duration: 10 * time.Minute,
			ODs: []string{"a->b"}, Why: "one dominant flow", Truth: "alpha a->b", TruthType: "ALPHA",
		}),
	}
}

func ledgerOf(anoms ...netwide.Anomaly) Ledger {
	var l Ledger
	l.Append(anoms...)
	return l
}

func savedBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, sampleState()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameState reports whether got, read back, is want: every field equal,
// and the ledger counted with want's count, length and checksum.
func sameState(got, want *State) bool {
	g, w := *got, *want
	gl, wl := g.Anomalies, w.Anomalies
	g.Anomalies, w.Anomalies = Ledger{}, Ledger{}
	return reflect.DeepEqual(&g, &w) && gl.n == wl.n && gl.size() == wl.size() && gl.crc == wl.crc
}

func TestRoundTrip(t *testing.T) {
	st, err := Read(bytes.NewReader(savedBytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	want := sampleState()
	want.Version = Version
	if !sameState(st, want) {
		t.Fatalf("round trip changed the state:\n got %+v\nwant %+v", st, want)
	}
	// Read has no file to take the ledger's bytes from.
	if _, err := st.Anomalies.Anomalies(); err == nil || !strings.Contains(err.Error(), "without its ledger file") {
		t.Fatalf("a ledger read without its file: %v", err)
	}
	// Through the files, the ledger's anomalies come back too, on the first
	// read and not before.
	path := filepath.Join(t.TempDir(), "daemon.nwcp")
	if err := WriteFile(path, want, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sameState(got, want) || got.Anomalies.base == nil || got.Anomalies.base.body != nil {
		t.Fatalf("file round trip changed the state, or read the ledger:\n got %+v\nwant %+v", got, want)
	}
	anoms, err := got.Anomalies.Anomalies()
	wantAnoms, _ := want.Anomalies.Anomalies()
	if err != nil || !reflect.DeepEqual(anoms, wantAnoms) {
		t.Fatalf("the restored ledger reads %+v (%v), want %+v", anoms, err, wantAnoms)
	}
}

func TestReadTruncated(t *testing.T) {
	raw := savedBytes(t)
	// Every envelope boundary: empty, mid-magic, end of magic, mid-version,
	// mid-length, mid-checksum, end of header, mid-payload, one byte short.
	for _, n := range []int{0, 1, 7, 8, 10, 16, 22, 24, 25, len(raw) / 2, len(raw) - 1} {
		_, err := Read(bytes.NewReader(raw[:n]))
		if err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes read silently", n, len(raw))
		}
		if !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("snapshot truncated to %d bytes: undiagnostic error %q", n, err)
		}
	}
	// And the other way: bytes the header does not account for.
	if _, err := Read(bytes.NewReader(append(raw, 0))); err == nil || !strings.Contains(err.Error(), "payload") {
		t.Fatalf("snapshot with a trailing byte: %v", err)
	}
}

func TestReadBitFlip(t *testing.T) {
	raw := savedBytes(t)
	for off, want := range map[int]string{
		0:            "magic",
		9:            "version",
		17:           "truncated or corrupt", // the length no longer matches the file
		21:           "checksum",
		headerLen:    "checksum",
		len(raw) / 2: "checksum",
		len(raw) - 1: "checksum",
	} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x08
		_, err := Read(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("bit flip at %d read silently", off)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("bit flip at %d: error %q does not mention %q", off, err, want)
		}
	}
}

func TestReadGarbageAndWrongFile(t *testing.T) {
	if _, err := Read(strings.NewReader("this is not a checkpoint")); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("garbage: %v", err)
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty file read silently")
	}
	// A dataset file has its own magic; it must be rejected on the magic,
	// not decoded as a snapshot.
	nwds := append([]byte("NWDSv2\r\n"), savedBytes(t)[8:]...)
	if _, err := Read(bytes.NewReader(nwds)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("dataset-magic file: %v", err)
	}
}

func TestReadVersionSkew(t *testing.T) {
	for _, v := range []uint32{Version + 1, Version - 1, 0} {
		raw := savedBytes(t)
		binary.LittleEndian.PutUint32(raw[offVersion:], v)
		if _, err := Read(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version-%d snapshot: %v", v, err)
		}
	}
	// Files earlier versions wrote, kept as fuzz seeds, are turned away by
	// their version before a byte of their payload is read.
	for _, v := range []int{5, 6} {
		corpus, err := os.ReadFile(fmt.Sprintf("testdata/fuzz/FuzzCheckpointRead/v%d-file", v))
		if err != nil {
			t.Fatal(err)
		}
		_, quoted, _ := strings.Cut(strings.TrimSpace(string(corpus)), "[]byte(")
		old, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Read(strings.NewReader(old)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("snapshot version %d, want %d", v, Version)) {
			t.Fatalf("version-%d file: %v", v, err)
		}
	}
}

// TestReadGobSnapshot: a file of format versions 1-4 — the gob payload behind
// an FNV digest this package wrote until version 5 — is turned away by name.
// The daemon cold-starts on it with a reason an operator can act on, not
// with a checksum error that sends them looking for a bad disk.
func TestReadGobSnapshot(t *testing.T) {
	st := sampleState()
	// Those versions held the ledger as decoded anomalies.
	old4 := struct {
		Version   int
		Topology  string
		Server    ServerState
		Stream    netwide.StreamCheckpoint
		Anomalies []netwide.Anomaly
	}{4, st.Topology, st.Server, st.Stream, nil}
	old4.Anomalies, _ = st.Anomalies.Anomalies()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(old4); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(payload.Bytes())
	old := binary.BigEndian.AppendUint64([]byte(gobMagic), h.Sum64())
	old = append(old, payload.Bytes()...)
	_, err := Read(bytes.NewReader(old))
	if err == nil || !strings.Contains(err.Error(), "versions 1-4") || strings.Contains(err.Error(), "checksum") {
		t.Fatalf("gob snapshot: %v", err)
	}
}

// envelope wraps payload in a header that verifies, so a test can hand the
// payload decoder bytes Write would never produce.
func envelope(payload []byte) []byte {
	file := append([]byte(Magic), make([]byte, headerLen-len(Magic))...)
	binary.LittleEndian.PutUint32(file[offVersion:], Version)
	binary.LittleEndian.PutUint64(file[offLength:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(file[offCRC:], crc32.Checksum(payload, castagnoli))
	return append(file, payload...)
}

func TestReadMissingFingerprint(t *testing.T) {
	for name, strip := range map[string]func(*State){
		"topology": func(st *State) { st.Topology = "" },
		"OD pairs": func(st *State) { st.ODPairs = 0 },
		"measures": func(st *State) { st.Measures = -1 },
	} {
		st := sampleState()
		strip(st)
		var buf bytes.Buffer
		if err := Write(&buf, st); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(&buf); err == nil || !strings.Contains(err.Error(), "fingerprint") {
			t.Fatalf("snapshot without %s: %v", name, err)
		}
	}
}

func TestWriteFileAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "daemon.nwcp")
	first := sampleState()
	if err := WriteFile(path, first, nil); err != nil {
		t.Fatal(err)
	}
	second := sampleState()
	second.Server.Watermark = 999
	if err := WriteFile(path, second, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Server.Watermark != 999 {
		t.Fatalf("replace kept the old snapshot (watermark %d)", got.Server.Watermark)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestWriteFileFailuresPreserveOldSnapshot injects every failure mode the
// write path has — torn write, disk full at each stage, failed rename —
// and requires the previous snapshot to stay intact and restorable every
// time, with no temp litter. This is the invariant the atomic-replace
// design exists for.
func TestWriteFileFailuresPreserveOldSnapshot(t *testing.T) {
	cases := []struct {
		name string
		arm  func(inj *fault.Injector)
	}{
		{"torn write mid-envelope", func(inj *fault.Injector) { inj.ArmTornWrite(FaultWrite, 11) }},
		{"torn write before first byte", func(inj *fault.Injector) { inj.ArmTornWrite(FaultWrite, 0) }},
		{"disk full on write", func(inj *fault.Injector) { inj.Arm(FaultWrite, fault.Fault{Err: fault.ErrDiskFull}) }},
		{"disk full on sync", func(inj *fault.Injector) { inj.Arm(FaultSync, fault.Fault{Err: fault.ErrDiskFull}) }},
		{"rename fails", func(inj *fault.Injector) { inj.Arm(FaultRename, fault.Fault{Err: fault.ErrDiskFull}) }},
	}
	cases = append(cases, []struct {
		name string
		arm  func(inj *fault.Injector)
	}{
		{"torn ledger append", func(inj *fault.Injector) { inj.ArmTornWrite(FaultLedgerWrite, 7) }},
		{"disk full on ledger append", func(inj *fault.Injector) { inj.Arm(FaultLedgerWrite, fault.Fault{Err: fault.ErrDiskFull}) }},
		{"disk full on ledger sync", func(inj *fault.Injector) { inj.Arm(FaultLedgerSync, fault.Fault{Err: fault.ErrDiskFull}) }},
	}...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "daemon.nwcp")
			// One Encoder, as the daemon's writer keeps: the second snapshot
			// appends one anomaly to the ledger file.
			var enc Encoder
			defer enc.Close()
			old := sampleState()
			old.Server.Watermark = 123
			if err := enc.WriteFile(path, old, nil); err != nil {
				t.Fatal(err)
			}
			inj := fault.NewInjector()
			tc.arm(inj)
			next := sampleState()
			next.Server.Watermark = 456
			next.Anomalies.Append(netwide.Anomaly{Class: "DOS", ODs: []string{"b->a"}})
			if err := enc.WriteFile(path, next, inj); err == nil {
				t.Fatal("injected failure produced a nil error")
			}
			got, err := ReadFile(path)
			if err != nil {
				t.Fatalf("previous snapshot unreadable after failed write: %v", err)
			}
			if got.Server.Watermark != 123 {
				t.Fatalf("previous snapshot replaced by failed write (watermark %d)", got.Server.Watermark)
			}
			if anoms, err := got.Anomalies.Anomalies(); err != nil || len(anoms) != 1 {
				t.Fatalf("previous snapshot's ledger reads %d anomalies (%v), want 1", len(anoms), err)
			}
			if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("failed write left temp file behind: %v", err)
			}
			// The next snapshot through the same Encoder cuts the failed
			// append's bytes and appends again.
			if err := enc.WriteFile(path, next, nil); err != nil {
				t.Fatal(err)
			}
			got, err = ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if anoms, err := got.Anomalies.Anomalies(); err != nil || len(anoms) != 2 || anoms[1].Class != "DOS" {
				t.Fatalf("the snapshot after the failure reads %+v (%v)", anoms, err)
			}
		})
	}
}

// TestLedgerFileAgainstSnapshot: the ledger file may run past what its
// snapshot counts — the tail of a run that died before its next snapshot,
// cut back before the next append — but never fall short of it, which
// forces a cold start. A file of the right length with a wrong byte still
// restores, and its first reader gets the checksum error.
func TestLedgerFileAgainstSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "daemon.nwcp")
	lpath := LedgerPath(path)
	st := sampleState()
	if err := WriteFile(path, st, nil); err != nil {
		t.Fatal(err)
	}
	size := st.Anomalies.size()
	good, err := os.ReadFile(lpath)
	if err != nil || int64(len(good)) != size {
		t.Fatalf("ledger file of %d bytes (%v), want %d", len(good), err, size)
	}

	// Longer: restores and reads; the restored Encoder cuts the tail.
	if err := os.WriteFile(lpath, append(bytes.Clone(good), "a dead run's tail"...), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if anoms, err := got.Anomalies.Anomalies(); err != nil || len(anoms) != 1 {
		t.Fatalf("a longer ledger file reads %d anomalies (%v)", len(anoms), err)
	}
	got.Anomalies.Append(netwide.Anomaly{Class: "SCAN"})
	if err := WriteFile(path, got, nil); err != nil {
		t.Fatal(err)
	}
	again, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if anoms, err := again.Anomalies.Anomalies(); err != nil || len(anoms) != 2 || anoms[1].Class != "SCAN" {
		t.Fatalf("after the cut and an append the ledger reads %+v (%v)", anoms, err)
	}
	if err := WriteFile(path, st, nil); err != nil { // back to one anomaly
		t.Fatal(err)
	}

	// Shorter, or gone: the snapshot does not restore.
	for name, cut := range map[string]func() error{
		"shorter": func() error { return os.WriteFile(lpath, good[:len(good)-1], 0o644) },
		"missing": func() error { return os.Remove(lpath) },
	} {
		if err := cut(); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), "truncated or lost ledger") {
			t.Fatalf("%s ledger file: %v", name, err)
		}
	}

	// Corrupt at the right length: restores, and the first reader is told.
	bad := bytes.Clone(good)
	bad[len(bad)/2] ^= 0x10
	if err := os.WriteFile(lpath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = ReadFile(path)
	if err != nil {
		t.Fatalf("a corrupt ledger of the right length fails the restore: %v", err)
	}
	for range 2 {
		if anoms, err := got.Anomalies.Anomalies(); err == nil || anoms != nil || !strings.Contains(err.Error(), "ledger checksum mismatch") {
			t.Fatalf("a corrupt ledger reads %d anomalies (%v)", len(anoms), err)
		}
	}
}

// TestTornWriteOnFreshPath: a torn first-ever checkpoint leaves either
// nothing or an unreadable fragment — and the fragment, if any, must be
// rejected by Read, which is what the daemon's cold-start fallback relies
// on.
func TestTornWriteOnFreshPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "daemon.nwcp")
	inj := fault.NewInjector()
	inj.ArmTornWrite(FaultWrite, 25) // header survives, payload torn
	if err := WriteFile(path, sampleState(), inj); err == nil {
		t.Fatal("torn write reported success")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("torn write published a checkpoint: %v", err)
	}
}
