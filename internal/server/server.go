// Package server is the live front door of the reproduction: a long-running
// ingest daemon that stands where the paper's collection infrastructure
// stood — between the routers exporting sampled flow telemetry and the
// subspace detector consuming OD-aggregated timebins.
//
// Ingest is one state machine, the collector (collector.go), behind one
// lock. The collector decodes each datagram through its one
// flowwire.Registry — NetFlow v5, NetFlow v9, IPFIX and sFlow v5, detected
// by version word, with hostile bytes counted and dropped, never trusted.
// Its gates (partition.go) then run the batch through every check once:
// sequence dedupe per (format, engine) stream under each format's own
// sequence semantics, the pre-epoch, late and wild-timestamp gates,
// resolution to an origin-destination PoP pair exactly as the offline
// pipeline does it, accumulation into per-bin byte/packet/flow vectors,
// and the watermark vote. Every export engine bins into the one set of
// open bins. The collector acts on the vote: it raises the watermark and
// seals every bin that every export stream has passed, and at the latest
// every bin through watermark − Grace, and the Server submits those bins
// to the one StreamDetector before the datagram's caller returns.
//
// The daemon reads one UDP socket with one goroutine; any number of
// exporters may send into it. The Server holds ingestMu for a whole
// datagram, bin close and submit included, and for a capture or the
// drain's flush; Server.mu guards the ledger and is never held across a
// submit. Those are the only two locks. Neither reading nor binning is
// partitioned: scoring must see each bin's full OD vector, because the
// subspace method is global — network-wide anomalies only appear in the
// full OD matrix — so a datagram that one reader holds back while another
// runs the watermark ahead would land behind a closed bin and be dropped as
// late. One reader keeps the kernel's arrival order, which is what the
// reorder window is sized for. See DESIGN.md E24, E34, E36 and E39.
//
// Batch parity: every per-record sum the server computes is an integer
// count below 2^53 folded into a float64, so the accumulated vectors are
// exact regardless of packet arrival order; a replayed dataset therefore
// reproduces the generator's matrices bit for bit, and the daemon's
// characterized anomalies match the batch Characterize output on the same
// bins (the loopback end-to-end test pins this in every wire format, with
// two exporters on the socket).
//
// The HTTP side is deliberately small, all of it under /api/v1/: healthz
// (liveness, 503 once the detector has recorded an error), stats (ingest
// counters as JSON, including a per-protocol breakdown) and anomalies (the
// characterized anomaly log as JSON; 500 with the reason when a restored
// ledger failed its check).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"netwide"
	"netwide/internal/checkpoint"
	"netwide/internal/dataset"
	"netwide/internal/engine"
	"netwide/internal/fault"
	"netwide/internal/flowwire"
	"netwide/internal/routing"
	"netwide/internal/topology"
)

// Config tunes an ingest daemon. The zero value listens on an ephemeral
// loopback UDP port with no HTTP endpoint.
type Config struct {
	// UDPAddr is the flow-export listen address (default "127.0.0.1:0";
	// the standard NetFlow port is 2055).
	UDPAddr string
	// Formats is the wire-format allowlist (nil or empty enables all four:
	// NetFlow v5, NetFlow v9, IPFIX, sFlow v5). A datagram in a disabled
	// format is counted as a bad packet and dropped.
	Formats []flowwire.Format
	// HTTPAddr is the status endpoint listen address ("" disables HTTP).
	HTTPAddr string
	// Epoch is the Unix time of bin 0: a record exported at UnixSecs lands
	// in bin (UnixSecs-Epoch)/300. Replayed datasets use Epoch 0 and stamp
	// headers with bin*300 directly.
	Epoch uint32
	// Grace is the longest a bin waits for a lagging exporter, in bins: a
	// bin closes (and is submitted to the detector) once every export
	// stream has sent, in sequence, a datagram for a later bin, and at the
	// latest once a record arrives for a bin Grace or more bins ahead of
	// it, so packets delayed or reordered across a bin boundary still land
	// in their bin. The early close waits for the grace rule to seal once
	// after the daemon starts, and is off while any stream goes untracked
	// (DESIGN.md E40). At Grace 1 the two close the same bins. Records
	// for already-closed bins are counted late and dropped. Default 1.
	Grace int
	// MaxAhead bounds how far ahead of the watermark a packet's bin may
	// claim to be (default 64 bins ≈ 5.3 hours). The bin timestamp is
	// attacker-controlled input that drives every bin close: without the
	// bound, one spoofed far-future datagram would force-close every open
	// bin with partial data and park the watermark where no legitimate bin
	// could ever close again. Packets beyond the bound are dropped and
	// counted (Stats.WildRecords). Values at or below Grace are raised to
	// 2*Grace: the bound must clear the reorder window, or a warm restart
	// (restored watermark Grace ahead of the resuming stream) would look
	// like a stranded watermark and discard restored bins.
	MaxAhead int
	// MaxOpenBins caps the daemon's accumulating (not yet closed) bins
	// (default 256), across every export engine. Records that would open a
	// bin beyond the cap are dropped and counted wild — bounding the
	// daemon's memory even against spoofed timestamps that scatter records
	// across arbitrary bins. Bins close on the datagram that lets them
	// close, so an in-order stream holds about Grace+1 of them, whatever
	// its rate.
	MaxOpenBins int
	// ReadBuffer is the UDP socket receive buffer in bytes (default 4MB —
	// the socket must absorb export bursts while a bin close runs).
	ReadBuffer int
	// Deprecated: Receivers is ignored. The daemon reads one socket
	// (DESIGN.md E39); the field stays only for callers not yet rebuilt
	// without it.
	Receivers int
	// Deprecated: Shards is ignored. Binning is one partition (DESIGN.md
	// E36); the field stays only for callers not yet rebuilt without it.
	Shards int
	// CheckpointPath enables crash-safe operation: the daemon periodically
	// snapshots its full recovery state (model generations, open events,
	// open bins, sequence cursors, watermark) to this file, atomically, and
	// appends the anomaly ledger to a second file beside it,
	// CheckpointPath + ".ledger" (checkpoint.LedgerPath). New restores from
	// the pair when the snapshot exists — falling back to a cold start (with
	// the reason on /stats) when the snapshot is torn, corrupt, from a
	// different format version or network model, or its ledger file holds
	// fewer bytes than it counts. The ledger's bytes are read and checked
	// when the ledger is first read, not at the restore. "" disables
	// checkpointing.
	CheckpointPath string
	// CheckpointEvery is the snapshot cadence in closed bins (default 1
	// when CheckpointPath is set): a snapshot is started once N bins have
	// been closed and submitted since the last one. Snapshots are written
	// off the ingest path, one at a time, so N is the minimum spacing: a
	// cadence tick that finds the previous snapshot still in flight (its
	// barrier in the detector, or its write on the way to disk) is taken at
	// the first bin close after it lands. A restart resumes at most N bins
	// plus the bins that closed during one snapshot in flight stale
	// (Stats.CheckpointLagBins).
	CheckpointEvery int
	// CheckpointInterval adds a wall-clock snapshot timer (0 disables it):
	// a safety net for quiet periods when no bins close — e.g. the
	// exporters died — so the ledger and counters still reach disk.
	CheckpointInterval time.Duration
	// Clock drives the CheckpointInterval timer (default the wall clock;
	// chaos tests install a manual one).
	Clock fault.Clock
	// Faults, when non-nil, threads error injection through the checkpoint
	// write path and the detector's refits. Nil in production.
	Faults *fault.Injector
	// Detect and Stream configure the underlying StreamDetector.
	Detect netwide.DetectOptions
	Stream netwide.StreamConfig
}

func (c Config) withDefaults() Config {
	if c.UDPAddr == "" {
		c.UDPAddr = "127.0.0.1:0"
	}
	if c.Grace <= 0 {
		c.Grace = 1
	}
	if c.MaxAhead <= 0 {
		c.MaxAhead = 64
	}
	// The wild-timestamp bound must clear the reorder window: after a warm
	// restart the restored watermark sits up to Grace bins ahead of where
	// the live stream resumes, and a MaxAhead at or below Grace would read
	// that as a stranded watermark — resetting it and discarding restored
	// open bins on every resume. Widening the bound is safe (it only
	// loosens a spoofing defense, never drops traffic); honoring a
	// too-small explicit value would break restarts silently.
	if c.MaxAhead <= c.Grace {
		c.MaxAhead = 2 * c.Grace
	}
	if c.MaxOpenBins <= 0 {
		c.MaxOpenBins = 256
	}
	if c.ReadBuffer <= 0 {
		c.ReadBuffer = 4 << 20
	}
	if c.CheckpointPath != "" && c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	if c.Clock == nil {
		c.Clock = fault.WallClock{}
	}
	return c
}

// Stats is a snapshot of the daemon's ingest counters, shaped for the
// /stats JSON endpoint.
type Stats struct {
	// Packets counts datagrams received; BadPackets the subset rejected by
	// the decoder (truncated, bad version, hostile counts); Duplicates the
	// subset dropped by per-engine sequence replay detection.
	Packets    uint64 `json:"packets"`
	BadPackets uint64 `json:"bad_packets"`
	Duplicates uint64 `json:"duplicate_packets"`
	// Records counts decoded flow records accepted for aggregation.
	// LostRecords is the sequence-gap estimate of records dropped in
	// transit, summed over the formats whose sequence unit is a record
	// (NetFlow v5 flows, IPFIX data records); the per-protocol breakdown
	// carries every format's loss in its own unit. LateRecords arrived for
	// bins already closed; Unroutable records carried an unknown engine
	// identity or an unresolvable destination.
	Records     uint64 `json:"records"`
	LostRecords uint64 `json:"lost_records"`
	LateRecords uint64 `json:"late_records"`
	Unroutable  uint64 `json:"unroutable_records"`
	// Protocols breaks the ingest counters down per wire format; only
	// formats that have received at least one datagram appear.
	Protocols map[string]ProtoStats `json:"protocols,omitempty"`
	// WildRecords carried bin timestamps the daemon refused to trust: more
	// than MaxAhead bins past the watermark, or needing an open bin beyond
	// MaxOpenBins. WatermarkResets counts stranded-watermark recoveries
	// (a far-future first packet or exporter clock jump, re-anchored once
	// a quorum of routable traffic ran consistently below it).
	WildRecords     uint64 `json:"wild_records"`
	WatermarkResets uint64 `json:"watermark_resets"`
	// BinsClosed bins have been accepted by the detector; BinsOpen are
	// still accumulating. Watermark is the highest bin seen, LastClosed the
	// highest closed (a bin the detector refused stays closed, uncounted).
	BinsClosed int `json:"bins_closed"`
	BinsOpen   int `json:"bins_open"`
	Watermark  int `json:"watermark"`
	LastClosed int `json:"last_closed"`
	// AlarmBins counts scored bins where any measure alarmed; Anomalies is
	// the running count of fully characterized anomalies.
	AlarmBins int `json:"alarm_bins"`
	Anomalies int `json:"anomalies"`
	// ModelFreshness reports the per-measure model-lifecycle gauges (B, P,
	// F order): updater kind, generation, per-bin updates folded into the
	// current generation, bins since the last full (re)fit, and staleness
	// in bins. Present only when a model lifecycle is active (incremental
	// updater, or a refit cadence) — absent on a static-model daemon, whose
	// model never moves (its generation is always 0).
	ModelFreshness []FreshnessStat `json:"model_freshness,omitempty"`
	// Deprecated: Receivers is never filled: the daemon reads one socket.
	Receivers []ReceiverStats `json:"receivers,omitempty"`
	// Deprecated: Shards is never filled: binning is one partition.
	Shards []ShardStats `json:"shards,omitempty"`
	// Deprecated: MergeQueueLen is always 0: nothing is merged.
	MergeQueueLen int `json:"merge_queue_len"`
	// Checkpointing state. CheckpointsWritten / CheckpointErrors count
	// snapshot attempts; LastCheckpointBin is the highest closed bin the
	// latest snapshot covers (-1 before the first). Restored reports this
	// process recovered from a snapshot covering bins through RestoredBin
	// (0 when Restored is false). CheckpointFallbacks counts startups that
	// found a snapshot but had to cold-start instead (torn, corrupt, version
	// skew, wrong fingerprint) — the reason lands in RestoreErr. CheckpointErr carries the most
	// recent snapshot-write failure (a full disk shows up here, not as a
	// crash). CheckpointLagBins is LastClosed − LastCheckpointBin, the bins
	// a kill right now would have to be re-fed: up to CheckpointEvery plus
	// what closed while a snapshot was in flight. CheckpointsCoalesced
	// counts cadence ticks that found a snapshot still in flight and were
	// folded into the next one; CheckpointLastWriteMs is how long the
	// latest write took (encode, fsync, rename).
	CheckpointsWritten  uint64 `json:"checkpoints_written"`
	CheckpointErrors    uint64 `json:"checkpoint_errors"`
	LastCheckpointBin   int    `json:"last_checkpoint_bin"`
	Restored            bool   `json:"restored"`
	RestoredBin         int    `json:"restored_bin"`
	CheckpointFallbacks uint64 `json:"checkpoint_fallbacks"`
	RestoreErr          string `json:"restore_err,omitempty"`
	CheckpointErr       string `json:"checkpoint_err,omitempty"`

	CheckpointLagBins     int     `json:"checkpoint_lag_bins"`
	CheckpointsCoalesced  uint64  `json:"checkpoints_coalesced"`
	CheckpointLastWriteMs float64 `json:"checkpoint_last_write_ms"`
	// LedgerErr is why the restored anomaly ledger cannot be served: its
	// file failed the checksum or the structural check when it was first
	// read. Detection carries on; Anomalies serves nothing until a cold
	// start.
	LedgerErr string `json:"ledger_err,omitempty"`
	// ScoringBacklogBins is the number of closed bins the detector holds
	// without a consumed verdict: submitted, but not yet scored,
	// characterized and folded into the anomaly ledger. VerdictLagMs is how
	// long the most recently answered bin took from submit to ledger. An
	// idle detector answers each bin as it arrives, so both sit near zero;
	// a backlog that keeps growing means scoring or classification cannot
	// keep up with the bin rate, and every alarm is that late.
	ScoringBacklogBins int     `json:"scoring_backlog_bins"`
	VerdictLagMs       float64 `json:"verdict_lag_ms"`
	// Draining reports a shutdown in progress. Err carries the first FATAL
	// error — an ingest submit failure or a detector scoring failure ("",
	// and /healthz 200, when healthy). DegradedErr carries a refit (or
	// incremental update) failure: the daemon keeps serving correct
	// verdicts on the previous model generation, so it is reported without
	// failing the liveness probe.
	Draining    bool   `json:"draining"`
	Err         string `json:"err,omitempty"`
	DegradedErr string `json:"degraded_err,omitempty"`
}

// FreshnessStat is one measure lane's model-freshness gauges.
type FreshnessStat struct {
	// Measure is the lane's single-letter code ("B", "P", "F").
	Measure string `json:"measure"`
	// Updater is the lifecycle kind keeping the lane's model current
	// ("refit", "incremental").
	Updater string `json:"updater"`
	// Generation counts adopted full (re)fits; Updates counts per-bin
	// incremental folds into the current generation (0 under refit).
	Generation uint64 `json:"generation"`
	Updates    uint64 `json:"updates"`
	// BinsSinceCorrection is how many bins ago the last full (re)fit was
	// adopted; StalenessBins is how many observed bins the scoring model
	// has not absorbed — up to RefitEvery under the refit lifecycle, at
	// most 1 under the incremental one.
	BinsSinceCorrection int `json:"bins_since_correction"`
	StalenessBins       int `json:"staleness_bins"`
}

// ProtoStats is one wire format's slice of the ingest counters, keyed in
// Stats.Protocols by the format name ("netflow5", "netflow9", "ipfix",
// "sflow").
type ProtoStats struct {
	Packets    uint64 `json:"packets"`
	BadPackets uint64 `json:"bad_packets"`
	Duplicates uint64 `json:"duplicate_packets"`
	Records    uint64 `json:"records"`
	// LostUnits is the sequence-gap loss estimate in the format's own
	// sequence unit — flows for v5, export packets for v9, data records
	// for IPFIX, flow samples for sFlow — named by SeqUnit.
	LostUnits uint64 `json:"lost_units"`
	SeqUnit   string `json:"seq_unit"`
}

// Deprecated: ReceiverStats is never reported: the daemon reads one socket.
type ReceiverStats struct {
	Packets uint64 `json:"packets"`
}

// Deprecated: ShardStats is never reported: binning is one partition.
type ShardStats struct {
	Records  uint64 `json:"records"`
	QueueLen int    `json:"queue_len"`
}

// Server is a running ingest daemon. Construct with New (trains the
// detector), call Start (binds the sockets, spawns the reader), and stop with
// Drain, which flushes every in-flight bin through the detector before
// returning — no accepted record is ever dropped by a shutdown.
type Server struct {
	cfg Config
	run *netwide.Run
	det *netwide.StreamDetector
	top *topology.Topology
	res *routing.Resolver

	conn    *net.UDPConn
	httpLn  net.Listener
	httpSrv *http.Server

	readerWG   sync.WaitGroup
	consumerWG sync.WaitGroup

	// ingestMu serialises every caller onto col: held for a whole
	// datagram (decode, binning, any bin close with its submit, a cadence
	// capture), for CheckpointNow's capture and for the drain's flush. It
	// is taken before mu, and never by the verdict consumer or the HTTP
	// handlers, so holding it across a detector submit cannot deadlock.
	ingestMu sync.Mutex
	col      *collector
	// binsSinceCp counts bins closed that no snapshot on disk covers yet —
	// the bin-driven checkpoint cadence. Atomic because the ingest side
	// adds to it while the writer goroutine subtracts what it wrote.
	binsSinceCp atomic.Int64
	// cpSlot (capacity 1) is held from a snapshot's capture until its
	// write has landed or failed: at most one is ever on its way to disk.
	// The cadence only tries it, and counts a miss in cpCoalesced;
	// CheckpointNow, Drain and Kill wait for it. cpWrite carries the
	// completed ticket from the verdict consumer to the writer goroutine.
	cpSlot      chan struct{}
	cpWrite     chan *cpTicket
	cpCoalesced atomic.Uint64
	writerWG    sync.WaitGroup
	// cpTimerStop ends the wall-clock checkpoint timer goroutine.
	cpTimerStop chan struct{}
	timerWG     sync.WaitGroup

	// mu guards everything below. It is never held across a detector
	// Submit: backpressure from the pipeline must not deadlock against the
	// verdict consumer (which takes mu to append anomalies) or block the
	// HTTP handlers.
	mu          sync.Mutex
	anoms       checkpoint.Ledger
	alarmBins   int
	cpWritten   uint64
	cpErrors    uint64
	lastCpBin   int
	cpLastWrite time.Duration
	// submitAt holds the submit time of every bin the detector has not
	// answered yet, oldest first: verdicts come back in submission order,
	// so the consumer pops one per verdict into verdictLag.
	submitAt    []time.Time
	verdictLag  time.Duration
	restored    bool
	restoredBin int
	cpFallbacks uint64
	restoreErr  string
	cpErr       string
	ledgerErr   string
	started     bool
	draining    bool
	killed      bool // draining by Kill: the ledger dies with the daemon
	firstError  error
}

// New trains one detector lane per traffic measure on the run (see
// netwide.StreamConfig — the paper-parity setup trains on the run's full
// matrices) and assembles the daemon around it. The run doubles as the
// daemon's network model: its topology resolves engine IDs and destination
// prefixes, its seasonal baselines classify the anomalies the detector
// finds. No sockets are bound until Start; tests and benchmarks drive
// ingest without one through IngestPacket.
// New also attempts crash recovery when cfg.CheckpointPath names an
// existing snapshot: if the file verifies (checksum, version, fingerprint,
// a ledger file that holds what it counts) the daemon resumes from it —
// restored models, reopened events, refilled open bins, sequence cursors,
// watermark, anomaly ledger — and is at most CheckpointEvery bins plus one
// snapshot in flight stale. The ledger's bytes stay in their file until
// the first Anomalies call.
// A snapshot that fails any check triggers a cold start instead, with the
// reason on Stats.RestoreErr: a bad file on disk must never keep the
// collector down.
func New(run *netwide.Run, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cfg.Stream.Faults = cfg.Faults
	ds := run.Dataset()
	s := &Server{
		cfg: cfg,
		run: run,
		top: ds.Top,
		// The daemon resolves what actually arrives through the table the
		// generator resolved with, and only by ResolveDst, which simulates
		// no failures: a replayed record resolves as it did at generation.
		res: ds.Resolver(),

		cpSlot:  make(chan struct{}, 1),
		cpWrite: make(chan *cpTicket, 1),
	}
	s.lastCpBin = -1

	if cfg.CheckpointPath != "" {
		if st, err := checkpoint.ReadFile(cfg.CheckpointPath); err != nil {
			if !errors.Is(err, os.ErrNotExist) {
				// A snapshot exists but cannot be trusted: cold-start and
				// say why, rather than crash-loop on a bad file.
				s.cpFallbacks++
				s.restoreErr = err.Error()
			}
		} else if err := s.restore(st); err != nil {
			// restore adopts nothing until every check has passed, so a
			// cold start never trusts checkpoint bytes.
			s.cpFallbacks++
			s.restoreErr = err.Error()
		}
	}
	if s.col == nil {
		col, err := newCollector(&s.cfg, s.top, s.res, nil)
		if err != nil {
			return nil, err
		}
		s.col = col
	}
	if s.det == nil {
		det, err := run.NewStreamDetector(cfg.Detect, cfg.Stream)
		if err != nil {
			return nil, fmt.Errorf("server: train detector: %w", err)
		}
		s.det = det
	}
	s.consumerWG.Add(1)
	go s.consumeVerdicts()
	s.writerWG.Add(1)
	go s.writeCheckpoints()
	return s, nil
}

// detectOpts returns the effective detector options (Config.Detect, with
// the zero value meaning the defaults — the same resolution New applies).
func (s *Server) detectOpts() netwide.DetectOptions {
	opts := s.cfg.Detect
	if opts.K == 0 {
		opts = netwide.DefaultDetectOptions()
	}
	return opts
}

// streamKind returns the effective model-lifecycle kind and drift-
// correction cadence: Config.Stream after the same zero-value defaulting
// netwide applies, because the raw config may be all-zero while the
// detector actually runs the defaults.
func (s *Server) streamKind() (engine.UpdaterKind, int) {
	eff := s.cfg.Stream.WithDefaults()
	kind, err := engine.ParseUpdaterKind(eff.Updater)
	if err != nil {
		// Unreachable once the detector constructor accepted the config;
		// fall back to the default kind to keep this accessor total.
		kind = engine.UpdaterRefit
	}
	return kind, eff.RefitEvery
}

// fingerprint checks that a snapshot was written by a daemon built around
// the same network model and detector configuration as this one.
func (s *Server) fingerprint(st *checkpoint.State) error {
	ds := s.run.Dataset()
	opts := s.detectOpts()
	kind, _ := s.streamKind()
	switch {
	case st.Topology != ds.Top.Name:
		return fmt.Errorf("snapshot topology %q, daemon runs %q", st.Topology, ds.Top.Name)
	case st.ODPairs != ds.NumODPairs():
		return fmt.Errorf("snapshot has %d OD pairs, topology %q has %d", st.ODPairs, ds.Top.Name, ds.NumODPairs())
	case st.Measures != int(dataset.NumMeasures):
		return fmt.Errorf("snapshot has %d measures, want %d", st.Measures, dataset.NumMeasures)
	case st.K != opts.K || st.Alpha != opts.Alpha:
		return fmt.Errorf("snapshot detector (K=%d, alpha=%v), daemon configured (K=%d, alpha=%v)", st.K, st.Alpha, opts.K, opts.Alpha)
	case st.Epoch != s.cfg.Epoch:
		return fmt.Errorf("snapshot epoch %d, daemon epoch %d", st.Epoch, s.cfg.Epoch)
	case !slices.Equal(st.Formats, s.enabledFormats()):
		return fmt.Errorf("snapshot formats %v, daemon enables %v", st.Formats, s.enabledFormats())
	case st.Updater != string(kind):
		// Lane states embed lifecycle-specific payloads (refit windows vs
		// tracker vectors); a daemon running the other lifecycle cannot
		// adopt them.
		return fmt.Errorf("snapshot captured under the %q model lifecycle, daemon runs %q", st.Updater, kind)
	}
	return nil
}

// enabledFormats lists the configured wire formats (none = all) in
// wire-version order — checkpoint fingerprint material, since engine
// cursors and template caches only make sense under the same decoder set.
func (s *Server) enabledFormats() []uint8 {
	var out []uint8
	for _, f := range flowwire.AllFormats() {
		if len(s.cfg.Formats) == 0 || slices.Contains(s.cfg.Formats, f) {
			out = append(out, uint8(f))
		}
	}
	return out
}

// restore rebuilds the daemon's state from a verified snapshot. Every
// stored field is cross-validated before it is believed — the snapshot
// passed the checksum, but shape and invariants are this layer's job (the
// collector checks its share in newCollector, the detector its own in
// RestoreStreamDetector). It adopts nothing until every check has passed,
// so on error the caller cold-starts from scratch. Runs before any ingest
// goroutine starts.
func (s *Server) restore(st *checkpoint.State) error {
	if err := s.fingerprint(st); err != nil {
		return err
	}
	sv := &st.Server
	if uint64(st.Anomalies.Len()) != st.Stream.Emitted {
		return fmt.Errorf("snapshot ledger holds %d anomalies, detector emitted %d: inconsistent snapshot", st.Anomalies.Len(), st.Stream.Emitted)
	}
	if st.Stream.Started {
		if sv.LastClosed != st.Stream.LastBin {
			return fmt.Errorf("snapshot last closed bin %d disagrees with detector cursor %d", sv.LastClosed, st.Stream.LastBin)
		}
	} else if sv.LastClosed != -1 {
		return fmt.Errorf("snapshot closed bins through %d but detector never started", sv.LastClosed)
	}
	col, err := newCollector(&s.cfg, s.top, s.res, sv)
	if err != nil {
		return err
	}
	det, err := s.run.RestoreStreamDetector(st.Stream, s.cfg.Stream)
	if err != nil {
		return err
	}
	s.col, s.det = col, det
	// Restored unread: its bytes stay in the ledger file until the first
	// reader loads them, and appends land in memory past them.
	s.anoms = st.Anomalies
	s.alarmBins = sv.AlarmBins
	s.restored = true
	s.restoredBin = sv.LastClosed
	s.lastCpBin = sv.LastClosed
	return nil
}

// cpTicket is one snapshot on its way to disk. The ingest side starts it
// with what it owns — fingerprint, counters, open bins, cursors, template
// caches — and sends it down the detector as a barrier token; the verdict
// consumer completes it with the detector's state, the ledger and the alarm
// count as of the barrier; the writer goroutine puts it on disk.
type cpTicket struct {
	st *checkpoint.State
	// bins is binsSinceCp at capture: what the cadence stops owing once st
	// is on disk. Bins that close while the write is in flight stay owed.
	bins int64
	// done receives the write's result (buffered: the cadence never reads
	// it).
	done chan error
}

// capture starts a snapshot with the ingest side's share of it — the
// fingerprint and the collector's state — and sends it down the detector
// as a barrier behind every bin submitted so far, without waiting for it.
// The caller holds cpSlot and ingestMu, which freezes the collector — no
// datagram mid-flight, no bin close running — and bins are only submitted
// under ingestMu, so the ingest state in the ticket and the detector state
// the barrier collects on its way are one cut of the submission order. A
// refused barrier (the detector is closed) settles the ticket as a failed
// write.
func (s *Server) capture() *cpTicket {
	ds := s.run.Dataset()
	opts := s.detectOpts()
	kind, _ := s.streamKind()
	st := &checkpoint.State{
		Topology: ds.Top.Name,
		ODPairs:  ds.NumODPairs(),
		Measures: int(dataset.NumMeasures),
		K:        opts.K,
		Alpha:    opts.Alpha,
		Epoch:    s.cfg.Epoch,
		Formats:  s.enabledFormats(),
		Updater:  string(kind),
		Server:   s.col.state(),
	}
	t := &cpTicket{st: st, bins: s.binsSinceCp.Load(), done: make(chan error, 1)}
	if err := s.det.Checkpoint(t); err != nil {
		s.finishTicket(t, err, 0)
	}
	return t
}

// writeCheckpoints is the one goroutine that touches the snapshot and
// ledger files: for each completed ticket it appends the anomalies the
// ledger file lacks and fsyncs them, then atomically replaces the snapshot
// (temp file, fsync, rename, directory fsync), off the ingest lock. Write
// failures (a full disk, an injected fault) are counted and surfaced on
// /stats, never fatal: the daemon keeps collecting, one snapshot staler.
func (s *Server) writeCheckpoints() {
	defer s.writerWG.Done()
	var enc checkpoint.Encoder
	defer enc.Close()
	for t := range s.cpWrite {
		start := time.Now()
		err := enc.WriteFile(s.cfg.CheckpointPath, t.st, s.cfg.Faults)
		s.finishTicket(t, err, time.Since(start))
	}
}

// finishTicket books a ticket's outcome, frees cpSlot and answers whoever
// waits on the ticket.
func (s *Server) finishTicket(t *cpTicket, err error, took time.Duration) {
	s.mu.Lock()
	if err != nil {
		s.cpErrors++
		s.cpErr = err.Error()
	} else {
		s.cpWritten++
		// What the file covers — not the live cursor, which has moved on
		// while the write was in flight.
		s.lastCpBin = t.st.Server.LastClosed
		s.cpLastWrite = took
		s.cpErr = ""
	}
	s.mu.Unlock()
	if err == nil {
		// Only the bins this snapshot covered: the ones that closed during
		// the write are still owed one.
		s.binsSinceCp.Add(-t.bins)
	}
	<-s.cpSlot
	t.done <- err
}

// cadenceDue counts n newly closed bins toward the snapshot cadence and
// reports whether to start a snapshot now — in which case the caller holds
// cpSlot. A tick that finds the previous snapshot still on its way to disk
// is not lost: binsSinceCp keeps what is owed, and the first bin close
// after the write lands takes it.
func (s *Server) cadenceDue(n int) bool {
	if s.cfg.CheckpointPath == "" || s.binsSinceCp.Add(int64(n)) < int64(s.cfg.CheckpointEvery) {
		return false
	}
	select {
	case s.cpSlot <- struct{}{}:
		return true
	default:
		s.cpCoalesced.Add(1)
		return false
	}
}

// snapshot takes one snapshot and returns once it is on disk (or has
// failed): the path of CheckpointNow, the wall-clock timer and — with
// flush, which first closes every bin through the watermark — Drain. Only
// the capture runs under ingestMu; the wait for the barrier and the disk
// does not.
func (s *Server) snapshot(flush bool) error {
	s.cpSlot <- struct{}{} // waits out a snapshot still on its way to disk
	if !flush {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			<-s.cpSlot
			return errors.New("server: draining; the drain writes the final checkpoint")
		}
	}
	s.ingestMu.Lock()
	if flush {
		s.submit(s.col.flush())
	}
	t := s.capture()
	s.ingestMu.Unlock()
	return <-t.done
}

// CheckpointNow takes a snapshot immediately, outside the bin-driven
// cadence — the wall-clock timer's entry point, also callable by tests and
// operators. When it returns nil the file on disk covers every bin closed
// before the call. It fails when checkpointing is disabled or a drain is
// in progress (the drain takes its own final snapshot).
func (s *Server) CheckpointNow() error {
	if s.cfg.CheckpointPath == "" {
		return errors.New("server: checkpointing disabled (no CheckpointPath)")
	}
	return s.snapshot(false)
}

// checkpointTimer snapshots every CheckpointInterval of wall-clock time —
// the safety net for quiet periods when no bins close and the bin-driven
// cadence therefore never fires.
func (s *Server) checkpointTimer(stop chan struct{}) {
	defer s.timerWG.Done()
	ticks, stopTicker := s.cfg.Clock.Ticker(s.cfg.CheckpointInterval)
	defer stopTicker()
	for {
		select {
		case <-stop:
			return
		case <-ticks:
			s.CheckpointNow() // failures land on Stats; draining is declined
		}
	}
}

// consumeVerdicts drains the detector's verdict stream for the daemon's
// lifetime, folding characterized anomalies and alarm counts into the
// served state. A checkpoint barrier arrives in the same stream: at that
// instant the ledger and the alarm count are exactly those of the bins
// before the barrier, so the consumer completes the ticket with them and
// hands it to the writer (never blocks: one ticket at a time, cpSlot). It
// exits when the stream closes (after Drain).
func (s *Server) consumeVerdicts() {
	defer s.consumerWG.Done()
	for v := range s.det.Verdicts() {
		s.mu.Lock()
		if v.Checkpoint != nil {
			t := v.Token.(*cpTicket)
			t.st.Stream = *v.Checkpoint
			t.st.Server.AlarmBins = s.alarmBins
			// No copy: the ledger only ever grows, and appends write past
			// the capped view the writer reads.
			t.st.Anomalies = s.anoms.View()
			s.mu.Unlock()
			s.cpWrite <- t
			continue
		}
		if v.Alarm() {
			s.alarmBins++
		}
		s.verdictLag, s.submitAt = time.Since(s.submitAt[0]), s.submitAt[1:]
		s.anoms.Append(v.Anomalies...)
		s.mu.Unlock()
	}
	s.mu.Lock()
	killed := s.killed
	s.mu.Unlock()
	if killed {
		// Nobody will read this ledger again: leave the events that were
		// still open unclassified.
		return
	}
	tail := s.det.TailAnomalies()
	s.mu.Lock()
	s.anoms.Append(tail...)
	s.mu.Unlock()
}

// Start binds the UDP and HTTP sockets and launches the reader goroutine.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("server: already started")
	}
	addr, err := net.ResolveUDPAddr("udp", s.cfg.UDPAddr)
	if err != nil {
		return fmt.Errorf("server: udp addr: %w", err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return fmt.Errorf("server: listen udp: %w", err)
	}
	// Best effort: the kernel may clamp to rmem_max, which still beats the
	// default. A too-small buffer shows up as LostRecords, not silence.
	_ = conn.SetReadBuffer(s.cfg.ReadBuffer)
	if s.cfg.HTTPAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.HTTPAddr)
		if err != nil {
			conn.Close()
			return fmt.Errorf("server: listen http: %w", err)
		}
		s.httpLn = ln
		mux := http.NewServeMux()
		mux.HandleFunc("/api/v1/healthz", s.handleHealthz)
		mux.HandleFunc("/api/v1/stats", s.handleStats)
		mux.HandleFunc("/api/v1/anomalies", s.handleAnomalies)
		// The status port faces the same network as the flow socket, so
		// it gets the same hostile-input posture: a client that dribbles a
		// header, stalls mid-request or parks an idle connection must not
		// pin a daemon goroutine forever.
		srv := &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			IdleTimeout:       60 * time.Second,
		}
		s.httpSrv = srv
		go func() {
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				s.fail(fmt.Errorf("server: http: %w", err))
			}
		}()
	}
	if s.cfg.CheckpointPath != "" && s.cfg.CheckpointInterval > 0 {
		s.cpTimerStop = make(chan struct{})
		s.timerWG.Add(1)
		go s.checkpointTimer(s.cpTimerStop)
	}
	s.started = true
	s.conn = conn
	s.readerWG.Add(1)
	go s.readLoop(conn)
	return nil
}

// UDPAddr returns the bound flow-export listen address (nil before Start).
func (s *Server) UDPAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn == nil {
		return nil
	}
	return s.conn.LocalAddr()
}

// HTTPAddr returns the bound status endpoint address (nil before Start or
// when HTTP is disabled).
func (s *Server) HTTPAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.httpLn == nil {
		return nil
	}
	return s.httpLn.Addr()
}

// readLoop drains the socket until Drain or Kill closes it. Every
// supported format keeps its export packets under the common 1500-byte
// MTU; the buffer leaves headroom so an overlong datagram arrives intact
// and is rejected by the decoder instead of being silently truncated into
// a "valid" prefix. A datagram names its exporter inside (engine ID,
// observation domain, agent address), so the source address is not read.
func (s *Server) readLoop(conn *net.UDPConn) {
	defer s.readerWG.Done()
	buf := make([]byte, 4096)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return // socket closed (Drain) or fatally broken
		}
		s.IngestPacket(buf[:n])
	}
}

// IngestPacket runs one datagram through the collector under ingestMu:
// decode, sequence dedupe, OD resolution, bin accumulation and the bin
// close it lets through, synchronously on the caller's goroutine. The read
// loop is its only caller in production; tests and benchmarks call it
// directly to drive the daemon without a socket. When it returns, the
// datagram is binned and every bin it let close has been submitted. When
// the bin-driven checkpoint cadence comes due it captures inline and only
// starts the snapshot: the barrier follows the closed bins down the
// detector, and the verdict consumer and the writer goroutine finish it
// while ingest goes on.
func (s *Server) IngestPacket(pkt []byte) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if n := s.submit(s.col.ingest(pkt)); n > 0 && s.cadenceDue(n) {
		s.capture()
	}
}

// submit hands closed bins to the detector in ascending order (ingestMu
// held) and returns how many it accepted, which binsClosed counts; a bin
// the detector refused stays closed. The collector returns bins in
// ascending order across calls, so the detector's non-decreasing contract
// holds. The first refusal is recorded as the daemon's error, and the bins
// after it are not offered.
func (s *Server) submit(closed []submittedBin) int {
	n := 0
	for _, sb := range closed {
		s.mu.Lock()
		s.submitAt = append(s.submitAt, time.Now())
		s.mu.Unlock()
		if err := s.det.Submit(sb.bin, sb.acc.bytes, sb.acc.packets, sb.acc.flows); err != nil {
			// Submits have a single writer, so the refused bin's entry is
			// the tail: no verdict will ever pop it.
			s.mu.Lock()
			s.submitAt = s.submitAt[:len(s.submitAt)-1]
			s.mu.Unlock()
			s.fail(fmt.Errorf("server: submit bin %d: %w", sb.bin, err))
			break
		}
		n++
	}
	s.col.ctr.binsClosed.Add(int64(n))
	return n
}

// fail records the first ingest-side error.
func (s *Server) fail(err error) {
	s.mu.Lock()
	if s.firstError == nil {
		s.firstError = err
	}
	s.mu.Unlock()
}

// Err returns the first error the daemon has seen: an ingest-side submit
// failure or a background detector failure.
func (s *Server) Err() error {
	s.mu.Lock()
	err := s.firstError
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.det.Err()
}

// Stats returns a snapshot of the ingest counters. Safe to call
// concurrently with ingest from any goroutine: the hot counters are
// atomics, so the snapshot is lock-free against the packet path (the
// counters may be mid-packet inconsistent with each other by a record or
// two, never torn).
func (s *Server) Stats() Stats {
	c := s.col
	st := Stats{
		Packets:         c.ctr.packets.Load(),
		BadPackets:      c.ctr.badPackets.Load(),
		Duplicates:      c.ctr.duplicates.Load(),
		Records:         c.ctr.records.Load(),
		LostRecords:     c.ctr.lostRecords.Load(),
		LateRecords:     c.ctr.lateRecords.Load(),
		Unroutable:      c.ctr.unroutable.Load(),
		WildRecords:     c.ctr.wildRecords.Load(),
		WatermarkResets: c.ctr.watermarkResets.Load(),
		BinsClosed:      int(c.ctr.binsClosed.Load()),
		BinsOpen:        int(c.ctr.binsOpen.Load()),
		Watermark:       int(c.ctr.watermark.Load()),
		LastClosed:      int(c.ctr.lastClosed.Load()),
	}
	for f := flowwire.Format(1); f < flowwire.NumFormats; f++ {
		ps, seen := c.proto[f].state(f)
		if !seen {
			continue
		}
		if st.Protocols == nil {
			st.Protocols = make(map[string]ProtoStats, 4)
		}
		st.Protocols[f.String()] = ProtoStats{
			Packets:    ps.Packets,
			BadPackets: ps.BadPackets,
			Duplicates: ps.Duplicates,
			Records:    ps.Records,
			LostUnits:  ps.LostUnits,
			SeqUnit:    f.SequenceModel().Unit(),
		}
	}
	s.mu.Lock()
	st.AlarmBins = s.alarmBins
	st.Anomalies = s.anoms.Len()
	st.CheckpointsWritten = s.cpWritten
	st.CheckpointErrors = s.cpErrors
	st.LastCheckpointBin = s.lastCpBin
	st.Restored = s.restored
	st.RestoredBin = s.restoredBin
	st.CheckpointFallbacks = s.cpFallbacks
	st.RestoreErr = s.restoreErr
	st.CheckpointErr = s.cpErr
	st.LedgerErr = s.ledgerErr
	if s.cfg.CheckpointPath != "" {
		// Read after lastCpBin, which never runs ahead of it.
		st.CheckpointLagBins = int(c.ctr.lastClosed.Load()) - s.lastCpBin
		st.CheckpointsCoalesced = s.cpCoalesced.Load()
		st.CheckpointLastWriteMs = float64(s.cpLastWrite) / float64(time.Millisecond)
	}
	st.ScoringBacklogBins = len(s.submitAt)
	st.VerdictLagMs = float64(s.verdictLag) / float64(time.Millisecond)
	st.Draining = s.draining
	if s.firstError != nil {
		st.Err = s.firstError.Error()
	}
	s.mu.Unlock()
	// Freshness gauges appear only when a model lifecycle is active, so a
	// static-model daemon's JSON surface stays exactly as it was. The
	// detector's freshness reads are atomics — no lock needed.
	if kind, refitEvery := s.streamKind(); kind == engine.UpdaterIncremental || refitEvery > 0 {
		fr := s.det.Freshness()
		st.ModelFreshness = make([]FreshnessStat, len(fr))
		for i, f := range fr {
			st.ModelFreshness[i] = FreshnessStat{
				Measure:             dataset.Measure(i).String(),
				Updater:             string(f.Kind),
				Generation:          f.Gen,
				Updates:             f.Updates,
				BinsSinceCorrection: f.SinceCorrection,
				StalenessBins:       f.Staleness,
			}
		}
	}
	if st.Err == "" {
		if err := s.det.Err(); err != nil {
			st.Err = err.Error()
		}
	}
	if err := s.det.RefitErr(); err != nil {
		st.DegradedErr = err.Error()
	}
	return st
}

// Anomalies returns the characterized anomalies collected so far, oldest
// first, or nil when the restored ledger failed its check; Stats.LedgerErr
// then says why. The first call after a restore reads the ledger's bytes
// from its file and checks them.
func (s *Server) Anomalies() []netwide.Anomaly {
	anoms, _ := s.ledger()
	return anoms
}

// ledger takes a view of the ledger under mu and decodes it after: the
// view's bytes never change, since appends land past it, and a restored
// prefix is loaded once, for every view, without mu. A ledger that fails
// its check is never served; the error lands on Stats.LedgerErr.
func (s *Server) ledger() ([]netwide.Anomaly, error) {
	s.mu.Lock()
	l := s.anoms.View()
	s.mu.Unlock()
	anoms, err := l.Anomalies()
	if err != nil {
		s.mu.Lock()
		s.ledgerErr = err.Error()
		s.mu.Unlock()
		return nil, err
	}
	return anoms, nil
}

// Drain performs the graceful shutdown: stop accepting datagrams, flush
// every in-flight bin through the detector (nothing accepted is dropped),
// write the final checkpoint (when enabled), wait for the verdict stream
// to complete — folding still-open events into the anomaly log — and
// finally stop the HTTP endpoint. The context bounds only the HTTP
// shutdown; the detector drain always runs to completion, so a context
// that is already done on entry is rejected up front rather than silently
// running a long drain whose deadline has passed. Drain may be called once:
// a second or concurrent call fails immediately with a descriptive error
// instead of blocking behind the first — the caller holding the real drain
// is the one that gets its result.
func (s *Server) Drain(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("server: drain: context already done before shutdown began: %w", err)
	}
	if !s.stopIntake(false) {
		return errors.New("server: drain already in progress or completed")
	}
	// The reader has exited and the socket is closed: no new bins can
	// appear. Flush the tail — every bin through the watermark closed and
	// submitted — and, when
	// checkpointing, persist the final snapshot and wait for it: it carries
	// every closed bin, so a restart after a clean drain resumes zero bins
	// stale. Failures land on Stats. ingestMu excludes a straggling direct
	// IngestPacket caller.
	if s.cfg.CheckpointPath != "" {
		s.snapshot(true)
	} else {
		s.ingestMu.Lock()
		s.submit(s.col.flush())
		s.ingestMu.Unlock()
	}
	s.reap()
	s.det.Wait() // every lane has finished before its errors are read
	if err := s.det.Err(); err != nil {
		// Fatal only: a refit failure means the daemon ran degraded, not
		// that the drain failed — it stays on Stats.DegradedErr.
		s.fail(fmt.Errorf("server: detector: %w", err))
	}

	s.stopHTTP(ctx, true)
	return s.Err()
}

// Kill stops the daemon the way a crash would: sockets closed, goroutines
// reaped, but no flush, no final checkpoint — the open bins and the
// in-memory ledger are simply gone, and the snapshot on disk stays
// whatever the last periodic write made it. This is the chaos tests' kill
// switch; production shutdown is Drain.
func (s *Server) Kill() {
	if !s.stopIntake(true) {
		return
	}
	s.stopHTTP(context.Background(), false)
	// Let a snapshot on its way to disk land (or fail) against a live
	// pipeline, and keep its slot so no other starts; then tear down with
	// no flush — whatever the bins still held is lost, exactly like a
	// crash. Reaping the goroutines keeps a killed daemon from leaking into
	// the test process; the verdicts the detector delivers on the way down
	// land in a ledger nobody will read again, which is why the consumer
	// does not ask for the tail.
	s.cpSlot <- struct{}{}
	defer func() { <-s.cpSlot }()
	s.reap()
	s.det.Wait()
}

// stopIntake starts the shutdown Drain and Kill share — draining set
// (killed too, for Kill), the checkpoint timer stopped so no timer
// snapshot can race the final one, the socket closed — and returns once
// the reader goroutine has exited. It reports false when a drain or kill
// began before it.
func (s *Server) stopIntake(kill bool) bool {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return false
	}
	s.draining, s.killed = true, kill
	conn, stop := s.conn, s.cpTimerStop
	s.cpTimerStop = nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		s.timerWG.Wait()
	}
	if conn != nil {
		conn.Close() // unblocks the reader
	}
	s.readerWG.Wait()
	return true
}

// stopHTTP takes the status endpoint down: gracefully within ctx, or —
// for Kill — abruptly, with no connection drain.
func (s *Server) stopHTTP(ctx context.Context, graceful bool) {
	s.mu.Lock()
	srv, ln := s.httpSrv, s.httpLn
	s.httpSrv, s.httpLn = nil, nil
	s.mu.Unlock()
	switch {
	case srv != nil && (!graceful || srv.Shutdown(ctx) != nil):
		srv.Close()
	case srv == nil && ln != nil:
		ln.Close()
	}
}

// reap closes the detector and waits for the verdict consumer and the
// snapshot writer to finish what was in flight — the shared tail of Drain
// and Kill.
func (s *Server) reap() {
	s.det.Close()
	s.consumerWG.Wait() // verdict stream fully drained, tail folded in
	close(s.cpWrite)
	s.writerWG.Wait()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if err := s.Err(); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

func (s *Server) handleAnomalies(w http.ResponseWriter, r *http.Request) {
	anoms, err := s.ledger()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if anoms == nil {
		anoms = []netwide.Anomaly{} // render [] rather than null
	}
	writeJSON(w, anoms)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
