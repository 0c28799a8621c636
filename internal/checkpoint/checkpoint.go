// Package checkpoint is the crash-safety layer of the live collector: a
// versioned, checksummed, atomically written snapshot of everything the
// ingest daemon needs to resume after a kill — per-measure model states,
// the event aggregator's open anomalies, the open bin accumulators, the
// per-engine sequence cursors and the watermark — so a restart replays
// nothing and loses at most the bins that closed after the last snapshot.
//
// The on-disk envelope is the same idiom as the dataset's .nwds files:
// 8 magic bytes, the 8-byte big-endian FNV-64a digest of the gob payload,
// then the payload. The digest is verified before a single byte reaches
// gob, because gob alone cannot detect payload corruption — a flipped bit
// inside a float decodes "successfully" into a different float, and a
// restored detector would then alarm differently from the one that
// crashed. A checkpoint that fails any check is reported as an error; the
// caller's contract is to fall back to a cold start, never to crash.
//
// WriteFile is atomic: the snapshot lands in a temp file, is fsynced,
// and only then renamed over the previous checkpoint — a crash mid-write
// (torn write, full disk, power cut) leaves the previous snapshot intact.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"netwide"
	"netwide/internal/fault"
)

// Magic opens a checkpoint file.
const Magic = "NWCPv1\r\n"

// Version is the current snapshot format version. A mismatch is a
// restore error (and therefore a cold start), not a migration: the
// snapshot is a cache of recoverable state, so the safe response to an
// unknown format is to rebuild from scratch.
//
// Version 2 generalized the collector's wire layer from NetFlow v5 to the
// format-agnostic flowwire decoders: engine cursors became (format, 32-bit
// engine) keyed, per-protocol ingest counters were added, and v9/IPFIX
// template caches became restore state. Version 1 snapshots cold-start.
//
// Version 3 sharded the accumulation state: open bins, engine cursors and
// the behind-streak moved from ServerState into per-shard ShardState
// entries, and the shard count joined the fingerprint (binning partitions
// OD pairs by export engine, so a snapshot only restores into a daemon
// with the same shard layout — a mismatch cold-starts). Version 2
// snapshots cold-start.
//
// Version 4 made the model lifecycle pluggable: each lane's recovery state
// became a full engine.UpdaterState (scoring model plus rolling window
// plus, under the incremental lifecycle, the subspace tracker's mean, axis
// and trace vectors), and the updater kind joined the fingerprint — a
// snapshot captured under one lifecycle cannot silently resume under
// another. Version 3 snapshots carried a bare model/window/since triple
// with no tracker state, so they cold-start.
const Version = 4

// Fault injection points consulted by WriteFile.
const (
	// FaultWrite wraps the temp-file writer (arm a WriteBudget for a torn
	// write, an Err for a full disk).
	FaultWrite = "checkpoint.write"
	// FaultSync fires before the temp file is fsynced.
	FaultSync = "checkpoint.sync"
	// FaultRename fires before the rename that publishes the snapshot.
	FaultRename = "checkpoint.rename"
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
// sequence value and the recent-sequence ring used for duplicate
// detection. Cursors are independent per wire format — a v5 engine 3 and
// an IPFIX observation domain 3 are different streams — so the format is
// part of the identity.
type EngineState struct {
	Format uint8 // flowwire.Format value
	ID     uint32
	Next   uint32
	Recent []uint32 // valid ring entries, in ring index order
	Pos    int      // next ring slot to overwrite
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

// ShardState is one binning shard's in-flight accumulation: the bins it
// is still filling, its engine sequence cursors, the highest bin it has
// sealed toward the merge layer, and its watermark-reset streak. The
// single-threaded collector writes exactly one ShardState; a sharded
// daemon writes one per shard worker, in shard order.
type ShardState struct {
	OpenBins      []OpenBin
	Engines       []EngineState
	SealedThrough int
	BehindStreak  int
}

// ServerState mirrors the ingest daemon's recovery state: the cumulative
// counters it serves on /stats plus the in-flight accumulation a restart
// must pick back up. It is a plain-data mirror (the server package imports
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

	Shards    []ShardState
	Protocols []ProtoState
	Templates []TemplateState
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
	// Shards is the binning shard count the snapshot was captured under.
	// Open bins and engine cursors are partitioned by engine hash, so a
	// daemon with a different shard layout cannot adopt them in place: a
	// mismatch cold-starts.
	Shards int
	// Updater is the model-lifecycle kind ("refit", "incremental") the
	// lane states were captured under. The lane states embed the matching
	// tracker/window payloads, so a daemon configured for a different
	// lifecycle cold-starts rather than misreading them.
	Updater string

	Server ServerState
	// Stream is the detector's own recovery state (models, refit windows,
	// open events), captured at a pipeline barrier.
	Stream netwide.StreamCheckpoint
	// Anomalies is the characterized-anomaly ledger as of the barrier.
	Anomalies []netwide.Anomaly
}

// headerLen is the envelope in front of the payload: magic, then digest.
const headerLen = len(Magic) + 8

// Encoder writes snapshots through one envelope buffer it keeps between
// calls. A daemon snapshots the same few hundred kilobytes again and
// again; building each envelope in a new buffer grown by doubling made
// more garbage than snapshot. The zero value is ready to use; an Encoder
// is not safe for concurrent use (the daemon's one writer goroutine owns
// one). The bytes written are those of the package-level Write.
type Encoder struct {
	buf bytes.Buffer
}

// Write writes st to w in the checksummed envelope, stamping the current
// Version.
func (e *Encoder) Write(w io.Writer, st *State) error {
	st.Version = Version
	e.buf.Reset()
	e.buf.WriteString(Magic)
	var digest [8]byte
	e.buf.Write(digest[:]) // its place; filled in once the payload is there
	// A new gob encoder each time: a kept one would leave the type
	// descriptors out of every snapshot but its first.
	if err := gob.NewEncoder(&e.buf).Encode(st); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	env := e.buf.Bytes()
	h := fnv.New64a()
	h.Write(env[headerLen:])
	binary.BigEndian.PutUint64(env[len(Magic):headerLen], h.Sum64())
	_, err := w.Write(env)
	return err
}

// Write writes st to w in the checksummed envelope, stamping the current
// Version.
func Write(w io.Writer, st *State) error { return new(Encoder).Write(w, st) }

// Read reads a snapshot written by Write. The file is untrusted input — a
// torn write, a corrupt sector, a file from a different build — so the
// magic, the digest and the version are all verified before the payload is
// believed, and any failure is a descriptive error, never a panic. Deeper
// semantic validation (model shapes, aggregator invariants) happens when
// the state is restored into live objects, each layer checking its own.
func Read(r io.Reader) (*State, error) {
	br := bufio.NewReader(r)
	var hdr [headerLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: truncated header: %w", err)
	}
	if string(hdr[:8]) != Magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q: not a checkpoint file", hdr[:8])
	}
	body, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: truncated file: %w", err)
	}
	h := fnv.New64a()
	h.Write(body)
	if want := binary.BigEndian.Uint64(hdr[8:]); h.Sum64() != want {
		return nil, fmt.Errorf("checkpoint: checksum mismatch (stored %016x, computed %016x): corrupt or truncated file", want, h.Sum64())
	}
	var st State
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&st); err != nil {
		return nil, fmt.Errorf("checkpoint: corrupt payload: %w", err)
	}
	if st.Version != Version {
		return nil, fmt.Errorf("checkpoint: snapshot version %d, want %d", st.Version, Version)
	}
	if st.Topology == "" || st.ODPairs <= 0 || st.Measures <= 0 {
		return nil, fmt.Errorf("checkpoint: snapshot missing fingerprint (topology %q, %d OD pairs, %d measures)", st.Topology, st.ODPairs, st.Measures)
	}
	return &st, nil
}

// WriteFile atomically replaces path with the snapshot: write to a temp
// file in the same directory, fsync, rename over path, fsync the
// directory. A failure at any step (including every injected one) leaves
// the previous checkpoint at path untouched and cleans up the temp file.
// inj may be nil (production).
func (e *Encoder) WriteFile(path string, st *State, inj *fault.Injector) error {
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
	// Make the rename itself durable. Best effort: some filesystems refuse
	// directory fsync, and the data is already safe in the file.
	if d, derr := os.Open(filepath.Dir(path)); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// WriteFile atomically replaces path with the snapshot; see
// Encoder.WriteFile.
func WriteFile(path string, st *State, inj *fault.Injector) error {
	return new(Encoder).WriteFile(path, st, inj)
}

// ReadFile reads and verifies the snapshot at path.
func ReadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
