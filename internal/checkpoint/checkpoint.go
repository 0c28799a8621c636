// Package checkpoint is the crash-safety layer of the live collector: a
// versioned, checksummed, atomically written snapshot of everything the
// ingest daemon needs to resume after a kill — per-measure model states,
// the event aggregator's open anomalies, the open bin accumulators, the
// per-engine sequence cursors and the watermark — so a restart replays
// nothing and loses at most the bins that closed after the last snapshot.
//
// The file is a fixed 24-byte header — magic, format version, payload
// length, CRC-32C of the payload — and then the payload in this package's own
// flat little-endian codec (codec.go; DESIGN.md E22 has the byte layout).
// Every header field is verified before a payload byte is interpreted: a
// flipped bit inside a float would otherwise decode "successfully" into a
// different float, and a restored detector would then alarm differently from
// the one that crashed. The decoder is a bounded cursor: no length read from
// the file is believed before the bytes it implies are known to be there. A
// checkpoint that fails any check is reported as an error; the caller's
// contract is to fall back to a cold start, never to crash.
//
// WriteFile is atomic: the snapshot lands in a temp file, is fsynced,
// and only then renamed over the previous checkpoint — a crash mid-write
// (torn write, full disk, power cut) leaves the previous snapshot intact.
//
// The anomaly ledger is not in the snapshot. Its bytes go to an
// append-only file beside it (LedgerPath), each anomaly once, and the
// snapshot records the ledger's count, length and CRC-32C. WriteFile
// appends what the file lacks and fsyncs it before the snapshot that
// counts it is written, so the file never holds less than a snapshot on
// disk counts; a restore reads none of it (ledger.go; DESIGN.md E41).
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"netwide"
	"netwide/internal/fault"
)

// Magic opens a checkpoint file.
const Magic = "NWCPv2\r\n"

// gobMagic opened the files of format versions 1 to 4 (an FNV-64a digest and
// a gob payload behind it). They are recognised only to be named in the error.
const gobMagic = "NWCPv1\r\n"

// Version is the current snapshot format version. There is one rule for
// every other file, older or newer: a magic or version that is not the
// current one is a restore error, and therefore a cold start with the reason
// on /stats — never a migration. The snapshot is a cache of recoverable
// state, so the safe response to an unknown format is to rebuild from
// scratch. Any change to the bytes codec.go writes bumps it
// (TestGoldenBytes fails until it does).
const Version = 8

// MaxFileSize is the largest file ReadFile and Read accept. The default
// lifecycle's snapshot at geant is 22 MB (three rolling one-week windows);
// the cap only keeps a wrong path — a sparse file, a device — from being read
// into memory.
const MaxFileSize = 1 << 30

// Fault injection points consulted by WriteFile.
const (
	// FaultWrite wraps the temp-file writer (arm a WriteBudget for a torn
	// write, an Err for a full disk).
	FaultWrite = "checkpoint.write"
	// FaultSync fires before the temp file is fsynced.
	FaultSync = "checkpoint.sync"
	// FaultRename fires before the rename that publishes the snapshot.
	FaultRename = "checkpoint.rename"
	// FaultLedgerWrite wraps the ledger file's append, which comes before
	// the snapshot's temp file is made.
	FaultLedgerWrite = "checkpoint.ledger.write"
	// FaultLedgerSync fires before the appended ledger bytes are fsynced.
	FaultLedgerSync = "checkpoint.ledger.sync"
)

// OpenBin is one still-accumulating timebin: the three per-OD vectors and
// the record count, exactly as the server's accumulator held them.
type OpenBin struct {
	Bin     int
	Records uint64
	Bytes   []float64
	Packets []float64
	Flows   []float64
}

// EngineState is one export engine's sequence cursor: the expected next
// sequence value, the recent-sequence ring used for duplicate detection, and
// the loss charged to the stream since its cursor last (re)started — the
// most a reordered datagram may refund. Cursors are independent per wire
// format — a v5 engine 3 and an IPFIX observation domain 3 are different
// streams — so the format is part of the identity.
type EngineState struct {
	Format  uint8 // flowwire.Format value
	ID      uint32
	Next    uint32
	Recent  []uint32 // valid ring entries, in ring index order
	Pos     int      // next ring slot to overwrite
	Charged uint64   // sequence units charged lost, not yet refunded
}

// ProtoState is one wire format's cumulative ingest counters.
type ProtoState struct {
	Format     uint8 // flowwire.Format value
	Packets    uint64
	BadPackets uint64
	Duplicates uint64
	Records    uint64
	LostUnits  uint64
}

// TemplateField mirrors flowwire.FieldSpec as plain checkpoint data (this
// package stays import-light; the server translates both ways).
type TemplateField struct {
	ID         uint16
	Enterprise uint32
	Length     uint16
}

// TemplateState is one cached v9/IPFIX template. Restore revalidates each
// definition exactly like a hostile wire template, so a tampered snapshot
// is rejected rather than trusted.
type TemplateState struct {
	Format uint8  // flowwire.Format value
	Source uint32 // exporter identity (v9 source ID / IPFIX observation domain)
	ID     uint16
	Scope  uint16
	Fields []TemplateField
}

// ServerState mirrors the ingest daemon's recovery state: the cumulative
// counters it serves on /stats plus the in-flight accumulation a restart
// must pick back up — the bins still filling, the engine sequence cursors,
// the seal point (the highest bin sealed, filled or not) and the
// stranded-watermark streak. It is a plain-data mirror (the server package imports
// this one, not the reverse), validated on restore by the server itself.
type ServerState struct {
	Packets         uint64
	BadPackets      uint64
	Duplicates      uint64
	Records         uint64
	LostRecords     uint64
	LateRecords     uint64
	Unroutable      uint64
	WildRecords     uint64
	WatermarkResets uint64
	BinsClosed      int
	Watermark       int
	LastClosed      int
	AlarmBins       int

	OpenBins      []OpenBin
	Engines       []EngineState
	SealedThrough int
	BehindStreak  int
	Protocols     []ProtoState
	Templates     []TemplateState
}

// State is one complete snapshot.
type State struct {
	Version int

	// Fingerprint: a snapshot may only restore into a daemon built around
	// the same network model and detector configuration. Restoring a
	// checkpoint into a different topology or threshold setup would not
	// crash — it would quietly characterize garbage, which is worse.
	Topology string
	ODPairs  int
	Measures int
	K        int
	Alpha    float64
	Epoch    uint32
	// Formats is the sorted allowlist of enabled wire formats (flowwire
	// Format values). Engine cursors and template caches only make sense
	// under the same decoder set, so a different allowlist cold-starts.
	Formats []uint8
	// Updater is the model-lifecycle kind ("refit", "incremental") the
	// lane states were captured under. The lane states embed the matching
	// tracker/window payloads, so a daemon configured for a different
	// lifecycle cold-starts rather than misreading them.
	Updater string

	Server ServerState
	// Stream is the detector's own recovery state (models, refit windows,
	// open events), captured at a pipeline barrier.
	Stream netwide.StreamCheckpoint
	// Anomalies is the characterized-anomaly ledger as of the barrier, in
	// its file encoding (ledger.go). The snapshot holds its count, length
	// and checksum; WriteFile appends its new bytes to the ledger file.
	Anomalies Ledger
}

// The header: magic, then version, payload length and the payload's CRC-32C,
// little-endian.
const (
	offVersion = len(Magic)
	offLength  = offVersion + 4
	offCRC     = offLength + 8
	headerLen  = offCRC + 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encoder writes snapshots through one buffer it keeps between calls. A
// daemon snapshots the same few hundred kilobytes (or, with a rolling
// window, tens of megabytes) again and again; once the buffer has grown to
// fit, a snapshot allocates nothing. The zero value is ready to use; an
// Encoder is not safe for concurrent use (the daemon's one writer goroutine
// owns one). The bytes written are those of the package-level Write.
// WriteFile keeps the ledger file open and knows how much of it is on disk,
// so each snapshot appends only the anomalies added since the last; Close
// lets the file go.
type Encoder struct {
	w  writer
	lf ledgerFile
}

// Write writes st to w as one Write call, stamping the current Version. It
// fails, before writing anything, on a state the format cannot hold (a
// ragged matrix).
func (e *Encoder) Write(w io.Writer, st *State) error {
	st.Version = Version
	e.w.buf = append(e.w.buf[:0], Magic...)
	e.w.buf = append(e.w.buf, make([]byte, headerLen-len(Magic))...) // filled in below
	e.w.err = nil
	e.w.state(st)
	if e.w.err != nil {
		return e.w.err
	}
	file := e.w.buf
	binary.LittleEndian.PutUint32(file[offVersion:], Version)
	binary.LittleEndian.PutUint64(file[offLength:], uint64(len(file)-headerLen))
	binary.LittleEndian.PutUint32(file[offCRC:], crc32.Checksum(file[headerLen:], castagnoli))
	_, err := w.Write(file)
	return err
}

// Write writes st to w, stamping the current Version.
func Write(w io.Writer, st *State) error { return new(Encoder).Write(w, st) }

// Read reads a snapshot written by Write. See decode for what is checked.
func Read(r io.Reader) (*State, error) {
	var file bytes.Buffer
	if _, err := file.ReadFrom(io.LimitReader(r, MaxFileSize+1)); err != nil {
		return nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	return decode(file.Bytes())
}

// decode verifies and decodes one whole snapshot file. The file is untrusted
// input — a torn write, a corrupt sector, a file from a different build — so
// magic, version, length and checksum are verified, in that order, before
// the payload is believed, and any failure is a descriptive error, never a
// panic. The payload decoder checks shapes against the fingerprint; deeper
// semantic validation (model values, aggregator invariants) happens when the
// state is restored into live objects, each layer checking its own.
func decode(file []byte) (*State, error) {
	if len(file) > MaxFileSize {
		return nil, fmt.Errorf("checkpoint: file larger than the %d-byte cap: not a checkpoint file", MaxFileSize)
	}
	if len(file) >= len(Magic) && string(file[:len(Magic)]) != Magic {
		if string(file[:len(Magic)]) == gobMagic {
			return nil, fmt.Errorf("checkpoint: snapshot in the gob format of versions 1-4, want version %d", Version)
		}
		return nil, fmt.Errorf("checkpoint: bad magic %q: not a checkpoint file", file[:len(Magic)])
	}
	if len(file) < headerLen {
		return nil, fmt.Errorf("checkpoint: truncated header: %d bytes, want %d", len(file), headerLen)
	}
	if v := binary.LittleEndian.Uint32(file[offVersion:]); v != Version {
		return nil, fmt.Errorf("checkpoint: snapshot version %d, want %d", v, Version)
	}
	payload := file[headerLen:]
	if n := binary.LittleEndian.Uint64(file[offLength:]); n != uint64(len(payload)) {
		return nil, fmt.Errorf("checkpoint: header promises a %d-byte payload, file holds %d: truncated or corrupt file", n, len(payload))
	}
	if want, got := binary.LittleEndian.Uint32(file[offCRC:]), crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("checkpoint: checksum mismatch (stored %08x, computed %08x): corrupt file", want, got)
	}
	st := &State{Version: Version}
	r := reader{buf: payload, name: "payload"}
	r.state(st)
	if r.err != nil {
		return nil, r.err
	}
	return st, nil
}

// WriteFile atomically replaces path with the snapshot: append the
// ledger's new bytes to LedgerPath(path) and fsync them, then write to a
// temp file in the same directory, fsync, rename over path, fsync the
// directory. A failure at any step (including every injected one) leaves
// the previous checkpoint at path untouched, and restorable with its
// ledger, and cleans up the temp file. inj may be nil (production).
func (e *Encoder) WriteFile(path string, st *State, inj *fault.Injector) error {
	if err := e.appendLedger(LedgerPath(path), &st.Anomalies, inj); err != nil {
		return fmt.Errorf("checkpoint: write %s: %w", path, err)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: create temp: %w", err)
	}
	err = e.Write(inj.Writer(FaultWrite, f), st)
	if err == nil {
		err = inj.Fire(FaultSync)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err == nil {
		err = inj.Fire(FaultRename)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: write %s: %w", path, err)
	}
	// Make the rename itself durable.
	syncDir(path)
	return nil
}

// WriteFile atomically replaces path with the snapshot; see
// Encoder.WriteFile. A fresh Encoder takes LedgerPath(path) to hold st's
// restored ledger prefix and appends every anomaly st holds in memory, so
// a state read from one path and written to another needs its ledger file
// copied beside the new path first.
func WriteFile(path string, st *State, inj *fault.Injector) error {
	var e Encoder
	defer e.Close()
	return e.WriteFile(path, st, inj)
}

// ReadFile reads and verifies the snapshot at path: one read sized by the
// file's length, under MaxFileSize, and one stat of its ledger file, which
// must hold at least the bytes the snapshot counts (more is the tail of a
// run that died before its next snapshot). The ledger's bytes are not
// read: the first Ledger.Anomalies does that.
func ReadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() > MaxFileSize {
		return nil, fmt.Errorf("checkpoint: %s is %d bytes, over the %d-byte cap: not a checkpoint file", path, fi.Size(), MaxFileSize)
	}
	file := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, file); err != nil {
		return nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	st, err := decode(file)
	if err != nil {
		return nil, err
	}
	if b := st.Anomalies.base; b != nil {
		b.path = LedgerPath(path)
		var held int64
		if fi, err := os.Stat(b.path); err == nil {
			held = fi.Size()
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("checkpoint: ledger: %w", err)
		}
		if held < b.size {
			return nil, fmt.Errorf("checkpoint: ledger file %s holds %d bytes, the snapshot counts %d: truncated or lost ledger", b.path, held, b.size)
		}
	}
	return st, nil
}
