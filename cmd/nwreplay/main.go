// Command nwreplay streams a saved dataset over UDP as live flow-export
// traffic — the load generator for nwserve.
//
// For every bin in the replayed range it regenerates the exact resolved
// flow records the generator folded into the dataset's matrices, exports
// them in the chosen wire format (NetFlow v5 by default; also NetFlow v9,
// IPFIX or sFlow v5) through one export engine per origin PoP (sequence
// numbers running across bins like a real router), stamps each packet with
// the bin's timestamp, and sends the packets to the collector at a
// configurable packet rate. Any scenario the scenario engine can generate
// — DDoS, worm, flash crowd, outage, at any topology scale — thereby
// becomes a live load test of the ingest daemon, in any supported format.
//
// Usage:
//
//	nwreplay -in abilene.nwds -to 127.0.0.1:2055 [-format netflow5]
//	         [-from 0] [-until 0] [-pps 20000] [-conns 1] [-epoch 0]
//
// With -conns N the replay sends from N source sockets, each export engine
// pinned to one of them: N exporters sending into nwserve's one socket at
// once, while per-engine affinity keeps every engine's sequence stream in
// order on its one path.
package main

import (
	"flag"
	"log"
	"time"

	"netwide/internal/cli"
	"netwide/internal/flowwire"
	"netwide/internal/server"
)

func main() {
	to := flag.String("to", "127.0.0.1:2055", "collector UDP address")
	from := flag.Int("from", 0, "first bin to replay")
	until := flag.Int("until", 0, "replay bins [from, until) (0 = end of dataset)")
	pps := flag.Int("pps", 20000, "packet rate (0 = unpaced; pacing avoids socket-buffer loss)")
	conns := flag.Int("conns", 1, "exporter source sockets sending into the collector at once, each export engine on one of them")
	format := flag.String("format", "netflow5", "wire format: netflow5, netflow9, ipfix or sflow")
	c := cli.Parse("nwreplay", "replay a saved dataset as live flow-export traffic over UDP.\n\n"+
		"Regenerates each bin's resolved flow records and exports them to a\n"+
		"collector (nwserve) at a configurable packet rate, in any supported\n"+
		"wire format (-format netflow5|netflow9|ipfix|sflow).",
		cli.Defaults{}, "in", "epoch")
	wf, err := flowwire.ParseFormat(*format)
	if err != nil {
		log.Fatal(err)
	}
	run, _, err := c.Run()
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	st, err := server.Replay(run.Dataset(), server.ReplayConfig{
		Addr:             *to,
		Format:           wf,
		From:             *from,
		To:               *until,
		PacketsPerSecond: *pps,
		Conns:            *conns,
		Epoch:            c.Epoch(),
	})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	log.Printf("replayed %d bins to %s as %s: %d packets, %d records, %.1f MB in %v (%.0f pkt/s, %.0f rec/s)",
		st.Bins, *to, wf, st.Packets, st.Records, float64(st.Bytes)/(1<<20), elapsed.Round(time.Millisecond),
		float64(st.Packets)/elapsed.Seconds(), float64(st.Records)/elapsed.Seconds())
}
