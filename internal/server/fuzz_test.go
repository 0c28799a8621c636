package server

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"netwide"
	"netwide/internal/checkpoint"
	"netwide/internal/flowwire"
)

// checksummed wraps payload in a checkpoint header that verifies (magic,
// version, payload length, CRC-32C; DESIGN.md E22), so a mutation reaches
// the payload decoder and the restore path behind it.
func checksummed(payload []byte) []byte {
	file := []byte(checkpoint.Magic)
	file = binary.LittleEndian.AppendUint32(file, checkpoint.Version)
	file = binary.LittleEndian.AppendUint64(file, uint64(len(payload)))
	file = binary.LittleEndian.AppendUint32(file, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(file, payload...)
}

// FuzzRestore starts a daemon on a snapshot whose payload the fuzzer owns
// and whose checksum is right — the file a bad sector cannot produce and a
// bug or an attacker can. Whatever is in it, New must come back with a
// daemon: either one that restored, ingests, drains and leaves a snapshot
// whose models are finite and of the topology's shape, or one that
// cold-started with the reason on Stats.RestoreErr. Never a panic in New or
// in any goroutine behind it, never a NaN basis installed.
func FuzzRestore(f *testing.F) {
	// A five-PoP network: most mutations cold-start, a cold start fits three
	// models, and at 25 OD pairs that takes a millisecond.
	simCfg := netwide.QuickConfig()
	simCfg.Topology = "synthetic:5:1"
	run, err := netwide.Simulate(simCfg)
	if err != nil {
		f.Fatal(err)
	}
	ds := run.Dataset()
	cfg := Config{Stream: netwide.StreamConfig{TrainBins: 288, BatchSize: 16, Updater: "incremental"}}
	path := filepath.Join(f.TempDir(), "daemon.nwcp")
	cfg.CheckpointPath = path

	// The seed is a real drained snapshot: twelve bins in, so there are
	// models, tracker vectors, open bins, engine cursors and a ledger.
	const seedBins, fedBins = 12, 3
	be, err := newBinExporters(ds, flowwire.FormatNetFlowV5)
	if err != nil {
		f.Fatal(err)
	}
	var bins [seedBins + fedBins][]replayPacket
	for b := range bins {
		if bins[b], _, err = be.encodeBin(b, 0); err != nil {
			f.Fatal(err)
		}
	}
	feed := func(srv *Server, from, to int) {
		for _, pkts := range bins[from:to] {
			for _, p := range pkts {
				srv.IngestPacket(p.data)
			}
		}
	}
	srv, err := New(run, cfg)
	if err != nil {
		f.Fatal(err)
	}
	feed(srv, 0, seedBins)
	drainOK(f, srv)
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed[24:])

	f.Fuzz(func(t *testing.T, payload []byte) {
		if err := os.WriteFile(path, checksummed(payload), 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := New(run, cfg)
		if err != nil {
			t.Fatalf("a bad snapshot kept the collector down: %v", err)
		}
		st := srv.Stats()
		if !st.Restored {
			if st.RestoreErr == "" || st.CheckpointFallbacks != 1 {
				t.Fatalf("cold start without a reason: %+v", st)
			}
			srv.Kill()
			return
		}
		// It restored: it must now work. Wherever the mutated cursors say
		// the stream stands, these bins are accepted, late or wild — all
		// fine; what is not fine is a panic on the way to the drain.
		feed(srv, seedBins, seedBins+fedBins)
		drainOK(t, srv)
		after, err := checkpoint.ReadFile(path)
		if err != nil {
			t.Fatalf("the restored daemon's own snapshot does not read: %v", err)
		}
		p := ds.NumODPairs()
		for i, lane := range after.Stream.Lanes {
			m := lane.Model
			// A model keeps every eigenvalue and the top min(that, 2K+16) axes.
			if kept := min(len(m.Eigenvalues), 2*m.Opts.K+16); len(m.Mean) != p || len(m.Components) != p*kept || len(m.Eigenvalues) < m.Opts.K {
				t.Fatalf("lane %d model out of shape: mean %d, %d components, %d eigenvalues, K=%d (p=%d)",
					i, len(m.Mean), len(m.Components), len(m.Eigenvalues), m.Opts.K, p)
			}
			vecs := map[string][][]float64{
				"mean": {m.Mean}, "eigenvalues": {m.Eigenvalues}, "components": {m.Components},
				"limits and trace": {{m.QLimit, m.T2Limit, m.TotalVar}},
			}
			if tr := lane.Tracker; tr != nil {
				vecs["tracker mean and trace"] = [][]float64{tr.Mean, {tr.TotalVar}}
				vecs["tracker axes"] = tr.Axes
			}
			for what, rows := range vecs {
				for _, row := range rows {
					for _, v := range row {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("lane %d: non-finite value in the model's %s after a restore the daemon accepted", i, what)
						}
					}
				}
			}
		}
	})
}
