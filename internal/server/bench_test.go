package server

import (
	"bytes"
	"encoding/binary"
	"io"
	"path/filepath"
	"runtime"
	"testing"

	"netwide"
	"netwide/internal/checkpoint"
	"netwide/internal/flowwire"
)

// benchIngest measures the sustained per-datagram ingest path — decode,
// sequence accounting, OD resolution, bin accumulation — at a given
// topology scale and wire format. One iteration ingests one full bin of
// replay packets; the packets' sequence numbers are restamped each pass so
// the replay detector sees a continuous stream instead of duplicates, and
// the bin timestamp stays fixed so no detector submission mixes into the
// measured path. records/sec is the daemon's headline sustained-ingest
// rate.
func benchIngest(b *testing.B, topo string, format flowwire.Format) {
	cfg := netwide.QuickConfig()
	cfg.MeanRateBps = 4e5
	cfg.Topology = topo
	run, err := netwide.Simulate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(run, Config{Stream: netwide.StreamConfig{TrainBins: run.Bins(), BatchSize: 16}})
	if err != nil {
		b.Fatal(err)
	}
	be, err := newBinExporters(run.Dataset(), format)
	if err != nil {
		b.Fatal(err)
	}
	pkts, records, err := be.encodeBin(0, 0)
	if err != nil {
		b.Fatal(err)
	}
	// One unmeasured decode pass learns each packet's engine identity and
	// sequence advance (for v9/IPFIX it also seeds nothing — the server
	// under test keeps its own template cache, learned on the first
	// measured pass from the template sets the packets carry; the
	// re-announces of later passes only refresh it, allocating nothing).
	type pktMeta struct{ engine, advance uint32 }
	meta := make([]pktMeta, len(pkts))
	preReg, err := flowwire.NewRegistry(format)
	if err != nil {
		b.Fatal(err)
	}
	for j, p := range pkts {
		bt, _, err := preReg.Decode(p.data, nil)
		if err != nil {
			b.Fatal(err)
		}
		meta[j] = pktMeta{engine: bt.Engine, advance: bt.SeqAdvance}
	}
	// restamp rewrites packet j's sequence number(s) to start at cur, in
	// the format's own sequence field.
	restamp := func(p []byte, cur uint32) {
		switch format {
		case flowwire.FormatNetFlowV5:
			binary.BigEndian.PutUint32(p[16:], cur)
		case flowwire.FormatNetFlowV9:
			binary.BigEndian.PutUint32(p[12:], cur)
		case flowwire.FormatIPFIX:
			binary.BigEndian.PutUint32(p[8:], cur)
		case flowwire.FormatSFlow:
			// Every flow sample carries its own sequence number and the
			// batch sequence is the first one: renumber them all.
			off := 28
			for off+8 <= len(p) {
				sl := int(binary.BigEndian.Uint32(p[off+4:]))
				if binary.BigEndian.Uint32(p[off:]) == 1 { // flow sample
					binary.BigEndian.PutUint32(p[off+8:], cur)
					cur++
				}
				off += 8 + sl
			}
		}
	}
	// Several passes per iteration lift one op above the perf gate's timer
	// noise floor AND average out scheduler/GC hiccups within the op —
	// at -benchtime=1x a single-bin op varies ±2x run to run, which the
	// gate's 20% threshold cannot tolerate, while 16 bins of work per op
	// keeps repeat runs within a few percent.
	const passes = 16
	seq := map[uint32]uint32{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pass := 0; pass < passes; pass++ {
			for j, p := range pkts {
				m := meta[j]
				restamp(p.data, seq[m.engine])
				seq[m.engine] += m.advance
				srv.IngestPacket(p.data)
			}
		}
	}
	b.StopTimer()
	total := b.N * passes * records
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "records/sec")
	if got := srv.Stats().Records; got != uint64(total) {
		b.Fatalf("ingested %d records, want %d — the bench is not measuring a lossless path", got, total)
	}
}

// BenchmarkServerIngest is the sustained-ingest benchmark: the
// reference Abilene scale (121 OD pairs) and the Géant scale (529) over
// NetFlow v5 — the sub-benchmark names predate the multi-format wire
// layer and stay stable for baseline comparability — plus one Abilene
// variant per additional wire format.
func BenchmarkServerIngest(b *testing.B) {
	b.Run("abilene", func(b *testing.B) { benchIngest(b, "abilene", flowwire.FormatNetFlowV5) })
	b.Run("geant", func(b *testing.B) { benchIngest(b, "geant", flowwire.FormatNetFlowV5) })
	b.Run("abilene-netflow9", func(b *testing.B) { benchIngest(b, "abilene", flowwire.FormatNetFlowV9) })
	b.Run("abilene-ipfix", func(b *testing.B) { benchIngest(b, "abilene", flowwire.FormatIPFIX) })
	b.Run("abilene-sflow", func(b *testing.B) { benchIngest(b, "abilene", flowwire.FormatSFlow) })
}

// benchCheckpoint measures one full synchronous snapshot, CheckpointNow
// to its return — ingest-side capture, the barrier's trip through the
// idle pipeline (lane model parameters, refit windows), the consumer's
// hand-off, the encode, and the checksummed atomic file replace. The
// bin cadence no longer makes ingest wait for any of this past the
// capture; it is what the timer, an operator and the drain wait for, and
// how long a snapshot stays in flight.
func benchCheckpoint(b *testing.B, topo string) {
	cfg := netwide.QuickConfig()
	cfg.MeanRateBps = 4e5
	cfg.Topology = topo
	run, err := netwide.Simulate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(run, Config{
		CheckpointPath:  filepath.Join(b.TempDir(), "bench.nwcp"),
		CheckpointEvery: 1 << 30, // only the measured CheckpointNow calls snapshot
		Stream:          netwide.StreamConfig{TrainBins: run.Bins(), BatchSize: 16},
	})
	if err != nil {
		b.Fatal(err)
	}
	// A few ingested bins make the snapshot structurally honest: an open
	// accumulator, live sequence cursors, a started detector cursor.
	be, err := newBinExporters(run.Dataset(), flowwire.FormatNetFlowV5)
	if err != nil {
		b.Fatal(err)
	}
	for bin := 0; bin < 3; bin++ {
		pkts, _, err := be.encodeBin(bin, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pkts {
			srv.IngestPacket(p.data)
		}
	}
	// One unmeasured snapshot first: it grows the writer's kept buffer,
	// which would otherwise make allocs/op depend on b.N.
	if err := srv.CheckpointNow(); err != nil {
		b.Fatal(err)
	}
	// Several snapshots per iteration: a single snapshot is dominated by
	// fsync, whose latency varies enough run to run to trip the perf
	// gate's 20% threshold at -benchtime=1x; averaging keeps the op
	// stable. ns/op therefore times `snapshots` full snapshots.
	const snapshots = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < snapshots; s++ {
			if err := srv.CheckpointNow(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCheckpointSnapshot is the gated snapshot-cost benchmark at both
// topology scales.
func BenchmarkCheckpointSnapshot(b *testing.B) {
	b.Run("abilene", func(b *testing.B) { benchCheckpoint(b, "abilene") })
	b.Run("geant", func(b *testing.B) { benchCheckpoint(b, "geant") })
}

// TestCheckpointEncoderKeepsItsBuffer pins the snapshot writer's
// allocation diet on a real daemon's snapshot: the one Encoder the writer
// goroutine owns appends every snapshot into the buffer it kept from the
// last one, so once that has grown a write allocates (next to) nothing,
// where a one-shot checkpoint.Write grows a new buffer every time — and the
// bytes are the same.
func TestCheckpointEncoderKeepsItsBuffer(t *testing.T) {
	run := testRun(t)
	path := filepath.Join(t.TempDir(), "daemon.nwcp")
	srv, err := New(run, Config{CheckpointPath: path, CheckpointEvery: 1 << 30, Stream: parityStream(run)})
	if err != nil {
		t.Fatal(err)
	}
	feedBins(t, srv, run.Dataset(), 0, 3, 0)
	if err := srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	srv.Kill()
	st, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var oneShot, kept bytes.Buffer
	var enc checkpoint.Encoder
	if err := checkpoint.Write(&oneShot, st); err != nil {
		t.Fatal(err)
	}
	for range 2 { // the second write reuses what the first one grew
		kept.Reset()
		if err := enc.Write(&kept, st); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(oneShot.Bytes(), kept.Bytes()) {
		t.Fatal("Encoder.Write and checkpoint.Write produced different bytes")
	}

	perWrite := func(write func() error) (allocs float64, size uint64) {
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, func() {
			if err := write(); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	}
	oneAllocs, oneBytes := perWrite(func() error { return checkpoint.Write(io.Discard, st) })
	keptAllocs, keptBytes := perWrite(func() error { return enc.Write(io.Discard, st) })
	t.Logf("snapshot %d B; one-shot %.0f allocs / %d B per write, kept buffer %.0f allocs / %d B", oneShot.Len(), oneAllocs, oneBytes, keptAllocs, keptBytes)
	if keptAllocs > 2 {
		t.Fatalf("a warm Encoder.Write allocates %.0f times, want at most 2", keptAllocs)
	}
	if keptBytes+uint64(oneShot.Len()) > oneBytes {
		t.Fatalf("kept-buffer write allocates %d B, one-shot %d B: want at least one %d B snapshot less", keptBytes, oneBytes, oneShot.Len())
	}
}
