package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"netwide"
	"netwide/internal/flowwire"
	"netwide/internal/topology"
	"netwide/internal/traffic"
)

var (
	runOnce   sync.Once
	sharedRun *netwide.Run
	runErr    error
)

// testRun builds the shared 1-week quick run every server test trains on.
func testRun(t testing.TB) *netwide.Run {
	t.Helper()
	runOnce.Do(func() {
		sharedRun, runErr = netwide.Simulate(netwide.QuickConfig())
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return sharedRun
}

// parityStream is the batch-parity detector setup: models trained on the
// full run, no refits (thresholds must not drift for bit-exact parity).
func parityStream(run *netwide.Run) netwide.StreamConfig {
	return netwide.StreamConfig{TrainBins: run.Bins(), BatchSize: 16}
}

func anomalyKey(a netwide.Anomaly) string {
	return fmt.Sprintf("%s|%s|%d-%d|%v|%s|%s", a.Class, a.Measures, a.StartBin, a.EndBin, a.ODs, a.Truth, a.TruthType)
}

// TestLoopbackEndToEnd is the tentpole proof, once per wire format with
// two exporters sending into the daemon's one socket, plus a v5 control
// leg with one exporter: a dataset replayed as live export traffic over
// UDP loopback — NetFlow v5, NetFlow v9, IPFIX and sFlow v5 side by side —
// ingested by a daemon at the default Grace and MaxAhead, must drive the
// streaming detector to exactly the anomalies the batch Detect +
// Characterize path finds on the same data, in every format: the wire hop,
// the normalization, the bin aggregation and the drain must all be
// lossless, and no record may arrive behind a closed bin.
//
// Under -short (the CI race step) only the first two days are replayed and
// the assertions stop at ingest integrity — batch event windows span the
// whole week, so exact anomaly parity is only meaningful on a full replay.
func TestLoopbackEndToEnd(t *testing.T) {
	run := testRun(t)
	bins := run.Bins()
	fullParity := true
	if testing.Short() {
		bins = 2 * traffic.BinsPerDay
		fullParity = false
	}

	// The batch reference is computed once, up front; every leg's daemon is
	// compared against the same anomaly set.
	var batchKeys []string
	if fullParity {
		batchKeys = batchAnomalyKeys(t, run)
	}

	cfg := Config{HTTPAddr: "127.0.0.1:0", Detect: netwide.DefaultDetectOptions()}
	for _, format := range flowwire.AllFormats() {
		format := format
		t.Run(format.String(), func(t *testing.T) {
			t.Parallel()
			loopbackLeg(t, run, batchKeys, fullParity, cfg, ReplayConfig{Format: format, To: bins, Conns: 2})
		})
	}
	t.Run("netflow5-plain", func(t *testing.T) {
		t.Parallel()
		loopbackLeg(t, run, batchKeys, fullParity, cfg, ReplayConfig{Format: flowwire.FormatNetFlowV5, To: bins, Conns: 1})
	})
}

// awaitBooked polls until every record sent has been booked, accepted or
// not: UDP offers no delivery handshake, so only the deadline proves loss.
// The caller's assertions then say where the ones not accepted went.
func awaitBooked(t *testing.T, srv *Server, sent ReplayStats) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := srv.Stats()
		if st.Records+st.LateRecords+st.WildRecords+st.Unroutable >= uint64(sent.Records) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d of %d sent records after 60s (lost=%d bad=%d late=%d): UDP loss breaks parity — lower the replay rate",
				st.Records, sent.Records, st.LostRecords, st.BadPackets, st.LateRecords)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// batchAnomalyKeys is the batch Detect + Characterize anomaly set of run,
// as sorted anomaly keys: the reference a full-week replay must match.
func batchAnomalyKeys(t *testing.T, run *netwide.Run) []string {
	t.Helper()
	if err := run.Detect(netwide.DefaultDetectOptions()); err != nil {
		t.Fatal(err)
	}
	batch := run.Characterize()
	if len(batch) == 0 {
		t.Fatal("batch path characterized nothing; parity check is vacuous")
	}
	keys := make([]string, len(batch))
	for i, a := range batch {
		keys[i] = anomalyKey(a)
	}
	sort.Strings(keys)
	return keys
}

// loopbackLeg replays bins [0, rc.To) over loopback as rc says into a
// daemon built from cfg and asserts the full lossless-parity contract.
func loopbackLeg(t *testing.T, run *netwide.Run, batchKeys []string, fullParity bool, cfg Config, rc ReplayConfig) {
	t.Helper()
	cfg.Stream = parityStream(run)
	srv, err := New(run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	bins := rc.To
	rc.Addr, rc.PacketsPerSecond = srv.UDPAddr().String(), 10000
	sent, err := Replay(run.Dataset(), rc)
	if err != nil {
		t.Fatal(err)
	}
	format := rc.Format
	if sent.Records == 0 || sent.Packets == 0 {
		t.Fatalf("replay sent nothing: %+v", sent)
	}

	awaitBooked(t, srv, sent)

	// Exercise the HTTP surface while the daemon is still live.
	base := "http://" + srv.HTTPAddr().String()
	resp, err := http.Get(base + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var httpStats Stats
	if err := json.NewDecoder(resp.Body).Decode(&httpStats); err != nil {
		t.Fatalf("stats endpoint: %v", err)
	}
	resp.Body.Close()
	if httpStats.Records != uint64(sent.Records) {
		t.Fatalf("stats endpoint reports %d records, want %d", httpStats.Records, sent.Records)
	}

	if rc.Lag > 0 {
		// The laggard has sent its last bin: every earlier bin closed once
		// it had passed it, though the grace rule alone holds Grace open.
		if st := srv.Stats(); st.BinsOpen != 1 || st.LastClosed != bins-2 {
			t.Fatalf("before the drain %d bins open, closed through %d; want only bin %d open", st.BinsOpen, st.LastClosed, bins-1)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	st := srv.Stats()
	if st.LostRecords != 0 || st.BadPackets != 0 || st.Duplicates != 0 || st.LateRecords != 0 || st.Unroutable != 0 {
		t.Fatalf("lossless loopback replay took losses: %+v", st)
	}
	if st.BinsClosed != bins || st.BinsOpen != 0 {
		t.Fatalf("closed %d bins (open %d), want %d closed after drain", st.BinsClosed, st.BinsOpen, bins)
	}
	// Every submitted bin has been answered by the time Drain returns, and
	// answering them was timed.
	if st.ScoringBacklogBins != 0 || st.VerdictLagMs <= 0 {
		t.Fatalf("after drain scoring_backlog_bins %d, verdict_lag_ms %v; want 0 and a measured lag", st.ScoringBacklogBins, st.VerdictLagMs)
	}
	// The per-protocol breakdown must attribute every packet and
	// record to this format, with no loss in its own sequence unit.
	ps, ok := st.Protocols[format.String()]
	if !ok {
		t.Fatalf("stats carry no %q protocol entry: %+v", format, st.Protocols)
	}
	if ps.Records != uint64(sent.Records) || ps.Packets != uint64(sent.Packets) || ps.LostUnits != 0 {
		t.Fatalf("protocol breakdown %+v, want %d packets / %d records lossless", ps, sent.Packets, sent.Records)
	}
	if want := format.SequenceModel().Unit(); ps.SeqUnit != want {
		t.Errorf("protocol seq unit %q, want %q", ps.SeqUnit, want)
	}
	if !fullParity {
		if srv.Err() != nil {
			t.Fatalf("short replay left the daemon unhealthy: %v", srv.Err())
		}
		return
	}

	// Full week replayed: the daemon's characterized anomalies must
	// match the batch path exactly, whatever the wire format and the
	// pipeline shape were.
	streamed := srv.Anomalies()
	sk := make([]string, len(streamed))
	for i, a := range streamed {
		sk[i] = anomalyKey(a)
	}
	sort.Strings(sk)
	if len(batchKeys) != len(sk) {
		t.Fatalf("daemon characterized %d anomalies, batch %d:\n daemon %v\n batch  %v", len(sk), len(batchKeys), sk, batchKeys)
	}
	for i := range batchKeys {
		if batchKeys[i] != sk[i] {
			t.Errorf("anomaly %d differs:\n batch  %s\n daemon %s", i, batchKeys[i], sk[i])
		}
	}
}

// TestAPIVersionAliases pins the HTTP surface: every endpoint is served
// under the versioned /api/v1/ prefix and nowhere else — the unversioned
// aliases of earlier releases are gone and answer 404.
func TestAPIVersionAliases(t *testing.T) {
	run := testRun(t)
	srv, err := New(run, Config{HTTPAddr: "127.0.0.1:0", Stream: parityStream(run)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.HTTPAddr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.String()
	}
	for _, ep := range []string{"healthz", "stats", "anomalies"} {
		bareCode, _ := get("/" + ep)
		v1Code, _ := get("/api/v1/" + ep)
		if bareCode != http.StatusNotFound || v1Code != http.StatusOK {
			t.Fatalf("%s: status %d (bare) / %d (v1), want 404/200", ep, bareCode, v1Code)
		}
	}
	if _, body := get("/api/v1/anomalies"); strings.TrimSpace(body) != "[]" {
		t.Errorf("empty anomaly log renders %q, want []", body)
	}
}

// collectRecords regenerates resolved records from origin PoP 0 cells of
// one bin until it has n of them — real, resolvable payloads for crafted
// packets.
func collectRecords(t testing.TB, run *netwide.Run, n int) []flowwire.Flow {
	t.Helper()
	ds := run.Dataset()
	var recs []flowwire.Flow
	for i := 0; i < ds.Top.NumODPairs() && len(recs) < n; i++ {
		od := ds.Top.ODAt(i)
		if od.Origin != 0 {
			continue
		}
		ds.ForEachResolvedRecord(od, 0, func(_ topology.ODPair, r flowwire.Flow) {
			if len(recs) < n {
				recs = append(recs, r)
			}
		})
	}
	if len(recs) < n {
		t.Fatalf("collected only %d of %d records", len(recs), n)
	}
	return recs
}

// pkt encodes one v5 packet from engine 0 with the given sequence and bin
// timestamp.
func pkt(t *testing.T, seq uint32, bin int, recs []flowwire.Flow) []byte {
	t.Helper()
	b, err := flowwire.EncodeV5Packet(flowwire.V5Header{
		UnixSecs:     uint32(bin) * traffic.BinSeconds,
		FlowSequence: seq,
		EngineID:     0,
	}, recs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// feed hands the datagrams to the daemon in order. Ingest is synchronous:
// when IngestPacket returns, its datagram is binned and every bin it let
// close has been submitted.
func feed(srv *Server, pkts ...[]byte) {
	for _, p := range pkts {
		srv.IngestPacket(p)
	}
}

// TestInOrderBurstIsNeverWild: an in-order stream many times wider than
// MaxOpenBins, fed back to back, must never be refused as wild. A bin
// closes on the datagram that lets it close, so at most Grace+1 bins are
// ever open, and every record is booked exactly once:
// accepted, duplicate, late, wild or unroutable.
func TestInOrderBurstIsNeverWild(t *testing.T) {
	run := testRun(t)
	recs := collectRecords(t, run, 10)
	const bins = 60
	total := uint64(bins * len(recs))
	t.Run("sync", func(t *testing.T) {
		srv, err := New(run, Config{MaxOpenBins: 8, Stream: parityStream(run)})
		if err != nil {
			t.Fatal(err)
		}
		for bin := 0; bin < bins; bin++ {
			srv.IngestPacket(pkt(t, uint32(bin*len(recs)), bin, recs))
		}
		drainOK(t, srv)
		st := srv.Stats()
		booked := st.Records + st.Duplicates*uint64(len(recs)) + st.LateRecords + st.WildRecords + st.Unroutable
		if booked != total {
			t.Errorf("booked %d records, fed %d: %+v", booked, total, st)
		}
		if st.WildRecords != 0 || st.Records != total || st.BinsClosed != bins {
			t.Errorf("%d accepted, %d wild, %d bins closed; want %d, 0, %d", st.Records, st.WildRecords, st.BinsClosed, total, bins)
		}
	})
}

// TestOutOfOrderAndDuplicates pins the transport-hardening semantics:
// duplicate packets are dropped by sequence replay detection, bins arriving
// out of time order within the grace window still land in their own bin,
// late packets for closed bins are counted and discarded, and sequence gaps
// are accounted as loss.
func TestOutOfOrderAndDuplicates(t *testing.T) {
	run := testRun(t)
	recs := collectRecords(t, run, 10)
	p1 := pkt(t, 0, 5, recs)                     // bin 5, seq 0..9
	p2 := pkt(t, 10, 4, recs)                    // bin 4, AFTER bin 5 — within grace
	p3 := pkt(t, 20, 8, recs)                    // bin 8: watermark advances, closes bins <= 5
	p4 := pkt(t, 30, 3, recs)                    // bin 3: now late (closed)
	p5 := pkt(t, 90, 8, recs)                    // seq gap: 50 records presumed lost
	p6 := pkt(t, 40, 8, recs)                    // the reordered packet behind the gap: refund 10
	p7 := pkt(t, 3_000_000_000, 8, recs)         // wild backward sequence: exporter restart, resync
	p8 := pkt(t, 3_000_000_010+(1<<30), 8, recs) // wild FORWARD jump: restart too, not a phantom 2^30-record gap
	t.Run("sync", func(t *testing.T) {
		srv, err := New(run, Config{Grace: 3, Stream: parityStream(run)})
		if err != nil {
			t.Fatal(err)
		}
		feed(srv, p1, p1, p2, p3, p4, p5) // p1 twice: an exact duplicate must not double-count
		if st := srv.Stats(); st.LostRecords != 50 {
			t.Errorf("lost records %d after the gap, want 50", st.LostRecords)
		}
		feed(srv, p6, p7, p8) // p6 fills part of the gap: a real reorder, refunded

		st := srv.Stats()
		if st.Duplicates != 1 {
			t.Errorf("duplicates %d, want 1", st.Duplicates)
		}
		if want := uint64(70); st.Records != want { // p1 + p2 + p3 + p5 + p6 + p7 + p8
			t.Errorf("records %d, want %d", st.Records, want)
		}
		if st.LateRecords != 10 {
			t.Errorf("late records %d, want 10", st.LateRecords)
		}
		if st.LostRecords != 40 || st.Protocols["netflow5"].LostUnits != 40 {
			t.Errorf("lost records %d (netflow5 units %d), want 40 (50-record gap minus the reordered refund; restarts charge nothing)",
				st.LostRecords, st.Protocols["netflow5"].LostUnits)
		}
		if st.BinsClosed != 2 || st.LastClosed != 5 || st.Watermark != 8 {
			t.Errorf("bin state %+v, want 2 closed through 5, watermark 8", st)
		}
		if st.BinsOpen != 1 {
			t.Errorf("open bins %d, want 1 (bin 8)", st.BinsOpen)
		}

		drainOK(t, srv)
		if st := srv.Stats(); st.BinsClosed != 3 || st.BinsOpen != 0 {
			t.Errorf("after drain: %d closed / %d open, want 3 / 0", st.BinsClosed, st.BinsOpen)
		}
	})
}

// TestReorderRefundsOnlyTheStreamsOwnLoss: a datagram behind its stream's
// cursor refunds only loss charged to that stream since its cursor last
// (re)started. Engine 0 loses 10 records; then engine 1's first datagram
// arrives second — seq 10 before seq 0 — which left no gap, so engine 0's
// loss must stand, on the daemon's counter and on its format's.
func TestReorderRefundsOnlyTheStreamsOwnLoss(t *testing.T) {
	run := testRun(t)
	recs := collectRecords(t, run, 10)
	srv, err := New(run, Config{Stream: parityStream(run)})
	if err != nil {
		t.Fatal(err)
	}
	feed(srv,
		enginePkt(t, 0, 0, 0, recs),
		enginePkt(t, 0, 20, 0, recs), // engine 0's records 10-19 are lost
		enginePkt(t, 1, 10, 0, recs), // engine 1's stream starts at 10
		enginePkt(t, 1, 0, 0, recs),  // and its earlier datagram follows
	)
	st := srv.Stats()
	if st.Records != 40 || st.LostRecords != 10 || st.Protocols["netflow5"].LostUnits != 10 {
		t.Fatalf("%d records, %d lost (netflow5 units %d); want 40 accepted and engine 0's 10 still lost",
			st.Records, st.LostRecords, st.Protocols["netflow5"].LostUnits)
	}
	drainOK(t, srv)
}

// TestDrainFlushesInFlightBins pins the graceful-shutdown contract: bins
// still inside the grace window when the daemon stops must be submitted,
// scored and characterized before Drain returns — an operator stopping the
// daemon loses nothing that reached it.
func TestDrainFlushesInFlightBins(t *testing.T) {
	run := testRun(t)
	srv, err := New(run, Config{Grace: 4, Stream: parityStream(run)})
	if err != nil {
		t.Fatal(err)
	}
	recs := collectRecords(t, run, 10)
	for bin := 0; bin < 3; bin++ { // all three bins stay inside grace 4
		srv.IngestPacket(pkt(t, uint32(bin*10), bin, recs))
	}
	if st := srv.Stats(); st.BinsClosed != 0 || st.BinsOpen != 3 {
		t.Fatalf("pre-drain bin state %+v, want 0 closed / 3 open", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := srv.Stats()
	if st.BinsClosed != 3 || st.BinsOpen != 0 || st.LastClosed != 2 {
		t.Fatalf("after drain %+v, want all 3 bins closed", st)
	}
	if !st.Draining {
		t.Error("stats do not report the drain")
	}
	// A second drain is a caller bug: it fails fast with a descriptive
	// error instead of silently waiting behind a shutdown that already
	// happened (the old behavior hid double-shutdown bugs in operators).
	if err := srv.Drain(ctx); err == nil || !strings.Contains(err.Error(), "already") {
		t.Fatalf("second drain: %v, want an 'already in progress or completed' error", err)
	}
}

// TestDrainRejectsDeadContext pins the other half of the drain contract:
// the context bounds only the HTTP shutdown, so a context that is already
// done on entry would silently run an unbounded drain — it is rejected up
// front instead.
func TestDrainRejectsDeadContext(t *testing.T) {
	run := testRun(t)
	srv, err := New(run, Config{Stream: parityStream(run)})
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Drain(dead); err == nil || !strings.Contains(err.Error(), "context") {
		t.Fatalf("drain with dead context: %v, want a context error", err)
	}
	// The rejected call must not have flipped the daemon into draining: a
	// live context afterwards still performs the real shutdown.
	ctx, cancelLive := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelLive()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain after rejected call: %v", err)
	}
	if !srv.Stats().Draining {
		t.Error("stats do not report the drain")
	}
}

// TestConcurrentDrain: exactly one of N concurrent Drain calls wins; the
// rest fail promptly with the descriptive error rather than piling up
// behind the winner.
func TestConcurrentDrain(t *testing.T) {
	run := testRun(t)
	srv, err := New(run, Config{Stream: parityStream(run)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- srv.Drain(ctx)
		}()
	}
	wg.Wait()
	close(errs)
	var ok, rejected int
	for err := range errs {
		switch {
		case err == nil:
			ok++
		case strings.Contains(err.Error(), "already"):
			rejected++
		default:
			t.Errorf("unexpected drain error: %v", err)
		}
	}
	if ok != 1 || rejected != 3 {
		t.Fatalf("%d drains succeeded and %d were rejected, want 1 and 3", ok, rejected)
	}
}

// TestHostileDatagrams feeds the daemon the decoder's whole rogues'
// gallery: every datagram must be counted and dropped without disturbing
// ingest state, and records that decode but cannot be routed (unknown
// engine, unresolvable destination) must be counted unroutable — untrusted
// bytes never panic the daemon and never leak into the matrices.
func TestHostileDatagrams(t *testing.T) {
	run := testRun(t)
	recs := collectRecords(t, run, 5)
	good := pkt(t, 0, 0, recs)
	badVersion := append([]byte(nil), good...)
	badVersion[1] = 9
	hostileCount := append([]byte(nil), good...)
	hostileCount[2], hostileCount[3] = 0xFF, 0xFF
	// A decodable packet from an engine the topology does not know.
	unknownEngine, err := flowwire.EncodeV5Packet(flowwire.V5Header{EngineID: 200, FlowSequence: 0}, recs)
	if err != nil {
		t.Fatal(err)
	}
	wild, err := flowwire.EncodeV5Packet(flowwire.V5Header{
		UnixSecs:     uint32(1000 * traffic.BinSeconds),
		FlowSequence: uint32(len(recs)),
	}, recs)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("sync", func(t *testing.T) {
		srv, err := New(run, Config{Stream: parityStream(run)})
		if err != nil {
			t.Fatal(err)
		}
		feed(srv,
			nil,                              // empty datagram
			[]byte{1, 2, 3},                  // runt
			good[:flowwire.V5HeaderLen+7],    // truncated mid-record
			badVersion,                       // version word 9 with a v5 body
			hostileCount,                     // count beyond what the bytes hold
			bytes.Repeat([]byte{0xAB}, 2048), // garbage
		)
		st := srv.Stats()
		if st.BadPackets != 6 {
			t.Errorf("bad packets %d, want 6", st.BadPackets)
		}
		if st.Records != 0 || st.BinsOpen != 0 {
			t.Errorf("hostile datagrams leaked into ingest state: %+v", st)
		}

		feed(srv, unknownEngine)
		if st := srv.Stats(); st.Unroutable != uint64(len(recs)) {
			t.Errorf("unroutable %d, want %d", st.Unroutable, len(recs))
		}

		// The daemon is still healthy and still ingests good traffic.
		if srv.Err() != nil {
			t.Fatalf("hostile datagrams broke the daemon: %v", srv.Err())
		}
		feed(srv, good)
		if st := srv.Stats(); st.Records != uint64(len(recs)) {
			t.Errorf("good packet after hostile burst: %d records, want %d", st.Records, len(recs))
		}

		// A spoofed far-future timestamp must neither move the watermark
		// (it would force-close partial bins and stall every legitimate
		// bin) nor open a bin; its records are refused as wild.
		feed(srv, wild)
		st = srv.Stats()
		if st.WildRecords != uint64(len(recs)) {
			t.Errorf("wild records %d, want %d", st.WildRecords, len(recs))
		}
		if st.Watermark != 0 || st.BinsOpen != 1 {
			t.Errorf("spoofed timestamp moved bin state: watermark %d, open %d", st.Watermark, st.BinsOpen)
		}
		drainOK(t, srv)
	})
}

// TestWatermarkRecovery pins the stranded-watermark self-heal: a
// far-future FIRST packet (nothing exists to bound it against) parks the
// watermark where no legitimate bin could ever close, and the seal follows
// it past bins nothing filled — until a quorum of consecutive routable
// packets running far below it, above every bin ever submitted, re-anchors
// the watermark, discards the stranded bin as wild, rewinds the seal, and
// bin close resumes. The quorum's own packets arrived behind the stranded
// seal and are counted late.
func TestWatermarkRecovery(t *testing.T) {
	run := testRun(t)
	recs := collectRecords(t, run, 10)
	t.Run("sync", func(t *testing.T) {
		srv, err := New(run, Config{Stream: parityStream(run)})
		if err != nil {
			t.Fatal(err)
		}
		feed(srv, pkt(t, 0, 1000, recs)) // hostile first packet: bin 1000
		if st := srv.Stats(); st.Watermark != 1000 {
			t.Fatalf("first packet set watermark %d, want 1000", st.Watermark)
		}
		// Legitimate traffic: bins 0,1,2,... — all far below the
		// stranded watermark. After the quorum the watermark must snap
		// back.
		seq := uint32(10)
		for bin := 0; bin < 12; bin++ {
			feed(srv, pkt(t, seq, bin, recs))
			seq += uint32(len(recs))
		}
		st := srv.Stats()
		if st.WatermarkResets != 1 || st.Watermark != 11 {
			t.Fatalf("watermark resets %d, watermark %d; want 1 reset, re-anchored and moving on at 11 (stats: %+v)", st.WatermarkResets, st.Watermark, st)
		}
		if st.WildRecords != uint64(len(recs)) {
			t.Errorf("stranded bin's %d records not discarded as wild (got %d)", len(recs), st.WildRecords)
		}
		if want := uint64(watermarkQuorum * len(recs)); st.LateRecords != want {
			t.Errorf("late records %d, want the quorum's %d", st.LateRecords, want)
		}
		// Bins 8..11 open after the reset at bin 7; 8, 9 and 10 close.
		if st.Records != 5*uint64(len(recs)) || st.BinsClosed != 3 || st.LastClosed != 10 {
			t.Errorf("bin close after the reset: %+v, want 5 packets' records accepted and bins 8-10 closed", st)
		}
		drainOK(t, srv)
	})
}

// TestRefusedSubmitKeepsTheBooks: a bin the detector refuses — here
// because the daemon has already drained and a direct IngestPacket closes
// bins after it — must leave no scoring backlog behind and must not count
// as closed, while the late gate still holds behind it.
func TestRefusedSubmitKeepsTheBooks(t *testing.T) {
	run := testRun(t)
	srv, err := New(run, Config{Grace: 4, Stream: parityStream(run)})
	if err != nil {
		t.Fatal(err)
	}
	recs := collectRecords(t, run, 10)
	drainOK(t, srv)
	feed(srv, pkt(t, 0, 0, recs), pkt(t, 10, 1, recs), pkt(t, 20, 10, recs)) // bin 10 closes bins 0 and 1
	st := srv.Stats()
	if st.ScoringBacklogBins != 0 {
		t.Errorf("scoring backlog %d bins after refused submits, want 0", st.ScoringBacklogBins)
	}
	if st.BinsClosed != 0 || st.LastClosed != 1 {
		t.Errorf("bins closed %d through %d, want 0 counted and the seal through 1", st.BinsClosed, st.LastClosed)
	}
	if !strings.Contains(st.Err, "submit bin 0") {
		t.Errorf("refusal not recorded: err %q", st.Err)
	}
	feed(srv, pkt(t, 30, 1, recs))
	if st := srv.Stats(); st.LateRecords != uint64(len(recs)) {
		t.Errorf("late records %d: a refused bin must stay closed", st.LateRecords)
	}
}

// TestIngestIntoOpenBinDoesNotAllocate pins the hot path's steady state:
// an in-sequence v5 packet into an already-open bin decodes into the
// collector's reused buffer, finds its cursor and its bin, and allocates
// nothing.
func TestIngestIntoOpenBinDoesNotAllocate(t *testing.T) {
	run := testRun(t)
	recs := collectRecords(t, run, flowwire.V5MaxRecordsPerPacket)
	srv, err := New(run, Config{Stream: parityStream(run)})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 100
	pkts := make([][]byte, runs+2) // AllocsPerRun adds a warm-up call
	for i := range pkts {
		pkts[i] = pkt(t, uint32(i*len(recs)), 0, recs)
	}
	srv.IngestPacket(pkts[0]) // opens bin 0 and engine 0's cursor
	next := 1
	allocs := testing.AllocsPerRun(runs, func() {
		srv.IngestPacket(pkts[next])
		next++
	})
	if allocs != 0 {
		t.Errorf("IngestPacket into an open bin allocates %v per packet, want 0", allocs)
	}
	if st := srv.Stats(); st.Records != uint64(len(pkts)*len(recs)) || st.Duplicates != 0 {
		t.Errorf("ingested %d records (%d duplicate packets), want %d", st.Records, st.Duplicates, len(pkts)*len(recs))
	}
	drainOK(t, srv)
}
