package main

import (
	"fmt"
	"time"

	"netwide/internal/flowwire"
	"netwide/internal/scenario"
)

// Phase sizes. This is the one block to edit when the time budget changes:
// a run's wall time is (inputs + cold daemon) + the rounds + 1 paced pass.
const (
	// A round is one closed-loop pass and restoresPerRound warm restarts
	// from that pass's final snapshot. Rounds repeat until -seconds have
	// gone by, within these limits; taking the two metrics' samples in turn
	// spreads them over the whole run, so that a slow spell of the host
	// cannot fall on all the samples of one of them.
	minRounds = 2
	maxRounds = 8
	// A restore takes 2-4 ms.
	restoresPerRound = 100
	// sendWindow bounds the datagrams a closed-loop sender keeps
	// outstanding (sent minus the server's packet counter).
	sendWindow = 64
	// sendBinsWindow bounds how many bins past its reorder grace the same
	// sender runs ahead of the daemon's highest closed bin. The datagram
	// window alone only paces the receivers: on the sharded path nothing
	// holds ingest back when scoring falls behind, and once a shard holds
	// MaxOpenBins (256) open bins it drops records as wild.
	sendBinsWindow = 64
	// records_per_s is the best rate a closed-loop pass held over any
	// rateWindowBins consecutive bins: one scoring batch, 2-5 ms of the fast
	// workloads. Longer windows follow the host: at 64 bins (15-20 ms) two
	// runs in ten never saw a window at full speed in eight passes.
	rateWindowBins = 16
	// windowFullSleep is how long the closed-loop sender sleeps between two
	// looks at the packet counter while its window is full.
	windowFullSleep = 50 * time.Microsecond
	// pollEvery is how long the paced sender sleeps between two rounds of
	// sending what has come due and polling Stats().
	pollEvery = 100 * time.Microsecond
	// alarmedBinsForP90 is the fewest alarmed bins a paced pass needs for
	// its p90 to have ten samples beyond it.
	alarmedBinsForP90 = 100
	// stallTimeout is how long a sender waits for the server's packet
	// counter to move before it declares the outstanding datagrams lost.
	stallTimeout = 5 * time.Second
	// defaultSeconds is the round budget when -seconds is absent;
	// BENCHMARK.json's run_seconds is the value the driver passes.
	defaultSeconds = 10
)

// workload is one set of inputs plus the daemon configuration it is
// driven through. Every workload runs every phase (the result line must
// carry every metric).
type workload struct {
	name string

	topology string
	rateBps  float64
	format   flowwire.Format
	// bins is the replayed range [0, bins) of the simulated week.
	bins int

	receivers, shards, conns, grace int
	updater                         string
	// checkpointEveryBin snapshots on every closed bin, the daemon's default
	// cadence. The other workloads also carry a CheckpointPath — every pass
	// starts by restoring the pristine snapshot, see coldStart — but at a
	// cadence no run reaches, so the one snapshot they write is the drain's.
	checkpointEveryBin bool
	// offered is the paced pass's open-loop rate in records/s. It has to
	// leave the socket buffer (~290 datagrams under this host's rmem_max)
	// worth more than the host's longest stall: at 1.0M rec/s of NetFlow v5
	// that is 8 ms, and one paced pass in forty lost 540 datagrams.
	offered float64
	// minAlarmedBins fails a run whose paced pass times fewer alarms.
	minAlarmedBins int
}

const weekBins = 2016

var workloads = []workload{
	{
		name:     "wire-v5-sync",
		topology: "abilene", rateBps: 8e5, format: flowwire.FormatNetFlowV5, bins: weekBins,
		receivers: 1, shards: 1, conns: 1, grace: 1, offered: 0.5e6, minAlarmedBins: alarmedBinsForP90,
	},
	{
		name:     "wire-ipfix-sharded",
		topology: "geant", rateBps: 4e5, format: flowwire.FormatIPFIX, bins: weekBins,
		receivers: 2, shards: 4, conns: 2, grace: 48, offered: 0.5e6, minAlarmedBins: alarmedBinsForP90,
	},
	{
		name:     "wire-ipfix-ckpt",
		topology: "geant", rateBps: 4e5, format: flowwire.FormatIPFIX, bins: 432,
		receivers: 1, shards: 1, conns: 1, grace: 1, updater: "incremental",
		checkpointEveryBin: true, offered: 0.05e6, minAlarmedBins: alarmedBinsForP90,
	},
	{
		name:     "batch-week",
		topology: "geant", rateBps: 4e5, format: flowwire.FormatNetFlowV5, bins: weekBins,
		receivers: 1, shards: 1, conns: 1, grace: 1, offered: 0.4e6, minAlarmedBins: alarmedBinsForP90,
	},
}

// smokeWorkload is the harness self-test's workload (-smoke): small enough
// for `go test`, through the same code as the real ones.
var smokeWorkload = workload{
	name:     "smoke",
	topology: "abilene", rateBps: 8e5, format: flowwire.FormatNetFlowV5, bins: 288,
	receivers: 1, shards: 1, conns: 1, grace: 1, offered: 0.5e6, minAlarmedBins: 10,
}

// anomalyPlan is the injected anomaly population of every workload: the
// default random schedule's one-week counts per type, compiled from a
// scenario seed of its own. -seed drives the background traffic and the
// packet sampling — every byte on the wire and every noise-driven alarm —
// but not which episodes are injected where: with the random schedule the
// few large ones (an outage, a worm) fell differently on every seed, and the
// batch pipeline's characterisation time moved ±27% with them on abilene.
var anomalyPlan = &scenario.Scenario{
	Name: "bench", Seed: 2004,
	Episodes: []scenario.Episode{
		{Type: "alpha", Count: 37, StartBin: -1},
		{Type: "dos", Count: 9, StartBin: -1},
		{Type: "ddos", Count: 3, StartBin: -1},
		{Type: "flash", Count: 17, StartBin: -1},
		{Type: "scan", Count: 11, StartBin: -1},
		{Type: "portscan", Count: 4, StartBin: -1},
		{Type: "worm", Count: 1, StartBin: -1},
		{Type: "ptmult", Count: 1, StartBin: -1},
		{Type: "outage", Count: 1, StartBin: -1},
		{Type: "ingress-shift", Count: 1, StartBin: -1},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// metricDef mirrors one entry of BENCHMARK.json; the self-test pins the
// two against each other. bound is 0 for per-layer metrics.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"records_per_s", "1/s", "higher", 0.25},
	{"alarm_latency_ms_p50", "ms", "lower", 0.25},
	{"alarm_latency_ms_p90", "ms", "lower", 0.25},
	{"restore_s", "s", "lower", 0.25},
}
