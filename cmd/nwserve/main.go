// Command nwserve is the live ingest daemon: a long-running flow-telemetry
// collector in front of the concurrent streaming detector, speaking
// NetFlow v5, NetFlow v9, IPFIX and sFlow v5 on one socket (auto-detected
// per datagram; restrict with -formats).
//
// It loads a dataset written by abilenegen (the network model: topology,
// routing tables, seasonal baselines, and the training traffic for the
// per-measure subspace models), binds a UDP socket, and then ingests
// export packets indefinitely: decode, per-stream sequence accounting in
// each format's own sequence unit, OD resolution, 5-minute bin
// aggregation. Each closed bin streams through the detector — scoring, OD
// attribution, cross-measure event aggregation, classification — and every
// characterized anomaly is retained and served.
//
// Status endpoints (with -http), served under /api/v1/ only:
//
//	/api/v1/healthz    liveness (503 once the detector records an error)
//	/api/v1/stats      ingest counters as JSON, with a per-protocol breakdown
//	/api/v1/anomalies  the characterized anomaly log as JSON
//
// With -checkpoint the daemon is crash-safe: it periodically snapshots
// its full recovery state (fitted models, refit windows, open anomaly
// events, open bin accumulators, sequence cursors, watermark, anomaly
// ledger) to the named file — atomically, after every -checkpoint-every
// closed bins and every -checkpoint-interval of wall time — and restores
// from it on startup, resuming detection at most -checkpoint-every bins
// stale instead of retraining blind. A torn, corrupt or mismatched
// snapshot falls back to a cold start with the reason on /api/v1/stats.
//
// SIGINT/SIGTERM trigger a graceful drain: the socket closes, every
// in-flight bin flushes through the detector, still-open events are
// characterized, the final snapshot is written, and the final anomaly
// table prints before exit.
//
// One goroutine reads the one socket, and any number of exporters may send
// into it. Each datagram is decoded, binned into the one set of open bins
// and, when it lets a bin close, fed to the one detector before the next
// is read: the subspace method is a network-wide decomposition, so the
// detector must see each bin's complete OD vector, and one reader keeps
// the arrival order the -grace window is sized for.
//
// Usage:
//
//	nwserve -in abilene.nwds [-listen 127.0.0.1:2055] [-http 127.0.0.1:8080]
//	        [-formats netflow5,netflow9,ipfix,sflow]
//	        [-train 0] [-k 4] [-alpha 0.001] [-refit 0] [-window 0]
//	        [-batch 16] [-grace 1] [-epoch 0] [-workers 0]
//	        [-checkpoint daemon.nwcp] [-checkpoint-every 1] [-checkpoint-interval 0]
//
// Pair it with nwreplay, which streams a saved dataset back over UDP at a
// configurable rate.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"netwide/internal/cli"
	"netwide/internal/flowwire"
	"netwide/internal/server"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:2055", "UDP listen address for flow export packets")
	formats := flag.String("formats", "", "comma-separated wire-format allowlist: netflow5, netflow9, ipfix, sflow (empty = all)")
	httpAddr := flag.String("http", "", "HTTP status listen address (empty disables /api/v1/{healthz,stats,anomalies})")
	grace := flag.Int("grace", 1, "reorder grace in bins before a bin closes")
	ckpt := flag.String("checkpoint", "", "crash-safe snapshot file; restored on startup when present (empty disables)")
	ckptEvery := flag.Int("checkpoint-every", 1, "closed bins between snapshots (with -checkpoint)")
	ckptEach := flag.Duration("checkpoint-interval", 0, "wall-clock snapshot timer for quiet periods, e.g. 5m (0 disables)")
	c := cli.Parse("nwserve", "live flow-telemetry ingest daemon over the streaming subspace detector.\n\n"+
		"Receives NetFlow v5/v9, IPFIX and sFlow v5 export packets over UDP,\n"+
		"aggregates them into per-OD 5-minute timebins (bytes, packets, IP-flows),\n"+
		"and streams closed bins through the concurrent detection pipeline,\n"+
		"characterizing anomalies as they close. -in provides the topology,\n"+
		"baselines and training traffic.",
		cli.Defaults{}, "in", "train", "k", "alpha", "batch", "updater", "refit", "window", "workers", "epoch")
	allow, shown := []flowwire.Format(nil), flowwire.AllFormats()
	if *formats != "" {
		for _, name := range strings.Split(*formats, ",") {
			f, err := flowwire.ParseFormat(strings.TrimSpace(name))
			if err != nil {
				log.Fatal(err)
			}
			allow = append(allow, f)
		}
		shown = allow
	}
	run, _, err := c.Run()
	if err != nil {
		log.Fatal(err)
	}

	stream := c.StreamConfig(run.Bins())
	srv, err := server.New(run, server.Config{
		UDPAddr:            *listen,
		Formats:            allow,
		HTTPAddr:           *httpAddr,
		Epoch:              c.Epoch(),
		Grace:              *grace,
		CheckpointPath:     *ckpt,
		CheckpointEvery:    *ckptEvery,
		CheckpointInterval: *ckptEach,
		Detect:             c.DetectOptions(),
		Stream:             stream,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *ckpt != "" {
		switch st := srv.Stats(); {
		case st.Restored:
			log.Printf("restored from %s: resuming after bin %d with %d anomalies on the ledger", *ckpt, st.RestoredBin, st.Anomalies)
		case st.RestoreErr != "":
			log.Printf("snapshot %s unusable (%s): cold start", *ckpt, st.RestoreErr)
		default:
			log.Printf("no snapshot at %s: cold start, checkpointing every %d closed bins", *ckpt, *ckptEvery)
		}
	}
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	names := make([]string, len(shown))
	for i, f := range shown {
		names[i] = f.String()
	}
	log.Printf("listening for %s on %s (%d bins trained, %d OD pairs)",
		strings.Join(names, "/"), srv.UDPAddr(), stream.TrainBins, run.Dataset().NumODPairs())
	if a := srv.HTTPAddr(); a != nil {
		log.Printf("status endpoint on http://%s (/api/v1/{healthz,stats,anomalies})", a)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Print("draining: flushing in-flight bins through the detector")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drainErr := srv.Drain(ctx)

	st := srv.Stats()
	log.Printf("ingested %d packets / %d records (%d lost, %d duplicate pkts, %d late, %d unroutable, %d bad pkts) across %d bins",
		st.Packets, st.Records, st.LostRecords, st.Duplicates, st.LateRecords, st.Unroutable, st.BadPackets, st.BinsClosed)
	anoms := srv.Anomalies()
	cli.PrintAnomalies(anoms)
	log.Printf("characterized %d anomalies", len(anoms))
	if drainErr != nil {
		log.Fatalf("drain: %v", drainErr)
	}
}
