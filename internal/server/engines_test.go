package server

// engines_test.go exercises several export engines in isolation from the
// loopback matrix: stats consistency under concurrent ingest, and
// late-loss accounting when one engine lags behind another's watermark.

import (
	"encoding/json"
	"sync"
	"testing"

	"netwide/internal/flowwire"
	"netwide/internal/traffic"
)

// enginePkt is pkt with a chosen export engine, for tests that need
// several export streams.
func enginePkt(t *testing.T, engine uint8, seq uint32, bin int, recs []flowwire.Flow) []byte {
	t.Helper()
	b, err := flowwire.EncodeV5Packet(flowwire.V5Header{
		UnixSecs:     uint32(bin) * traffic.BinSeconds,
		FlowSequence: seq,
		EngineID:     engine,
	}, recs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStatsUnderIngestRace hammers the stats surface — the same assembly
// the HTTP handler serves, plus its JSON encoding — while two feeders
// ingest, as the socket's reader and a direct IngestPacket caller would.
// The assertions are minimal on purpose: the test exists for the -race CI
// leg, where any unsynchronized counter read or shared-state access
// between the feeders and the stats reader is the failure.
func TestStatsUnderIngestRace(t *testing.T) {
	run := testRun(t)
	recs := collectRecords(t, run, 5)
	t.Run("sync", func(t *testing.T) {
		srv, err := New(run, Config{Stream: parityStream(run)})
		if err != nil {
			t.Fatal(err)
		}

		stop := make(chan struct{})
		var readers sync.WaitGroup
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := srv.Stats()
				json.Marshal(st)
			}
		}()

		const feeders = 2
		var feed sync.WaitGroup
		for f := 0; f < feeders; f++ {
			feed.Add(1)
			go func(f int) {
				defer feed.Done()
				seq := uint32(0)
				for i := 0; i < 300; i++ {
					p := enginePkt(t, uint8(f), seq, i%4, recs)
					seq += uint32(len(recs))
					srv.IngestPacket(p)
				}
			}(f)
		}
		feed.Wait()
		close(stop)
		readers.Wait()
		drainOK(t, srv)
		if st := srv.Stats(); st.Packets != feeders*300 {
			t.Fatalf("ingested %d packets, want %d", st.Packets, feeders*300)
		}
	})
}

// TestLaggingEngineLateLoss pins late-loss accounting across export
// engines: once the watermark, driven by one engine running ahead, seals a
// bin, a straggler packet for that bin from another engine that has been
// silent must be dropped and counted late — never silently folded into a
// reopened bin, which would break daemon==batch parity.
func TestLaggingEngineLateLoss(t *testing.T) {
	run := testRun(t)
	srv, err := New(run, Config{Stream: parityStream(run)})
	if err != nil {
		t.Fatal(err)
	}
	recs := collectRecords(t, run, 10)

	// Engine 0 runs ahead through bin 5; each raise seals through
	// watermark-grace for every engine, including engine 1, which has
	// sent nothing yet.
	seq := uint32(0)
	for bin := 0; bin <= 5; bin++ {
		srv.IngestPacket(enginePkt(t, 0, seq, bin, recs))
		seq += uint32(len(recs))
	}
	st := srv.Stats()
	if st.Watermark != 5 || st.LastClosed != 4 || st.BinsOpen != 1 {
		t.Fatalf("watermark %d / last closed %d / open %d, want 5 / 4 / 1 (grace 1)", st.Watermark, st.LastClosed, st.BinsOpen)
	}

	// Engine 1 wakes up with traffic for bin 3, behind the seal point: its
	// records are counted late and bin 3 stays closed.
	srv.IngestPacket(enginePkt(t, 1, 0, 3, recs))
	st = srv.Stats()
	if st.LateRecords != uint64(len(recs)) || st.Records != 6*uint64(len(recs)) {
		t.Fatalf("late records %d, accepted %d; want %d late and engine 0's %d accepted", st.LateRecords, st.Records, len(recs), 6*len(recs))
	}
	if st.BinsOpen != 1 || st.LastClosed != 4 {
		t.Fatalf("the straggler reopened a bin: open %d, last closed %d", st.BinsOpen, st.LastClosed)
	}
	drainOK(t, srv)
}
