package main

import (
	"fmt"
	"sort"
	"time"

	"netwide"
	"netwide/internal/flowwire"
	"netwide/internal/topology"
	"netwide/internal/traffic"
)

// datagram is one pre-encoded export packet.
type datagram struct {
	data []byte
	// conn is the source socket the datagram's export engine is pinned to.
	conn uint8
	// records is how many flow records the datagram carries (0 for a pure
	// template packet).
	records uint16
	bin     uint16
}

// inputs is everything a run derives from -seed before it measures: the
// simulated dataset, every bin's datagrams encoded once, and the reference
// verdicts the passes are checked against.
type inputs struct {
	w   workload
	run *netwide.Run

	dgrams    []datagram
	wireBytes int
	records   int // flow records encoded
	templates int // datagrams that carried a template set and no data
	// lastOfBin[b] indexes bin b's last datagram.
	lastOfBin []int
	// recordsBefore[b] is how many records bins [0, b) carry.
	recordsBefore []int

	stream netwide.StreamConfig
	// snapshotPath is the daemon's CheckpointPath; pristine the snapshot of
	// a freshly fitted daemon that every pass starts from.
	snapshotPath string
	pristine     []byte
	// refAlarmBins are the alarmed bins in verdict order; refAnomalies the
	// ledger a lossless pass must end with.
	refAlarmBins []int
	refAnomalies []netwide.Anomaly

	simulateS, encodeS, referenceS float64
}

// buildInputs simulates the workload's dataset from seed (background
// traffic and sampling; the injected episodes are anomalyPlan's), encodes bins
// [0, w.bins) the way cmd/nwreplay does (one exporter per origin PoP,
// sequence numbers running across bins, headers stamped bin*300), and
// replays the same bins through a StreamDetector configured like the
// daemon's to get the reference.
func buildInputs(w workload, seed uint64) (*inputs, error) {
	in := &inputs{w: w}
	t0 := time.Now()
	cfg := netwide.QuickConfig()
	cfg.Seed = seed
	cfg.Topology = w.topology
	cfg.MeanRateBps = w.rateBps
	cfg.Scenario = anomalyPlan
	run, err := netwide.Simulate(cfg)
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	in.run = run
	in.simulateS = time.Since(t0).Seconds()
	if w.bins > run.Bins() {
		return nil, fmt.Errorf("workload replays %d bins, run has %d", w.bins, run.Bins())
	}

	t0 = time.Now()
	if err := in.encode(); err != nil {
		return nil, err
	}
	in.encodeS = time.Since(t0).Seconds()

	t0 = time.Now()
	// Trained on the whole run with no refits, like the daemon's parity
	// tests: thresholds must not drift between the reference and a pass.
	in.stream = netwide.StreamConfig{TrainBins: run.Bins(), BatchSize: 16, Updater: w.updater}
	det, err := run.NewStreamDetector(netwide.DefaultDetectOptions(), in.stream)
	if err != nil {
		return nil, fmt.Errorf("reference detector: %w", err)
	}
	verdicts, err := det.Replay(0, w.bins)
	if err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	for _, v := range verdicts {
		if v.Alarm() {
			in.refAlarmBins = append(in.refAlarmBins, v.Bin)
		}
		in.refAnomalies = append(in.refAnomalies, v.Anomalies...)
	}
	in.referenceS = time.Since(t0).Seconds()
	return in, nil
}

func (in *inputs) encode() error {
	ds := in.run.Dataset()
	var binTime uint32
	clock := func() (uint32, uint32) { return binTime, binTime }
	exps := make([]flowwire.Exporter, ds.Top.NumPoPs())
	for i := range exps {
		exp, err := flowwire.NewExporter(in.w.format, uint32(i), uint32(1/ds.Cfg.SamplingRate), clock)
		if err != nil {
			return fmt.Errorf("exporter: %w", err)
		}
		exps[i] = exp
	}
	// A registry of our own counts the records each datagram carries (the
	// exporter batches by size, and template packets carry none).
	reg, err := flowwire.NewRegistry(in.w.format)
	if err != nil {
		return err
	}
	var scratch []flowwire.Record
	in.lastOfBin = make([]int, in.w.bins)
	in.recordsBefore = make([]int, in.w.bins)
	for bin := 0; bin < in.w.bins; bin++ {
		in.recordsBefore[bin] = in.records
		binTime = uint32(bin) * traffic.BinSeconds
		var addErr error
		for i := 0; i < ds.Top.NumODPairs(); i++ {
			od := ds.Top.ODAt(i)
			exp := exps[od.Origin]
			ds.ForEachResolvedRecord(od, bin, func(_ topology.ODPair, rec flowwire.Flow) {
				if addErr == nil {
					addErr = exp.Add(rec)
				}
			})
		}
		if addErr != nil {
			return fmt.Errorf("encode bin %d: %w", bin, addErr)
		}
		for i, exp := range exps {
			if err := exp.Flush(); err != nil {
				return fmt.Errorf("flush bin %d: %w", bin, err)
			}
			for _, pkt := range exp.Drain() {
				_, recs, err := reg.Decode(pkt, scratch[:0])
				if err != nil {
					return fmt.Errorf("encode bin %d: own decoder rejects the packet: %w", bin, err)
				}
				scratch = recs
				in.wireBytes += len(pkt)
				in.dgrams = append(in.dgrams, datagram{
					data: pkt, // Drain hands over ownership
					conn: uint8(i % in.w.conns), records: uint16(len(recs)), bin: uint16(bin),
				})
				in.records += len(recs)
				if len(recs) == 0 {
					in.templates++
				}
			}
		}
		if len(in.dgrams) == 0 || int(in.dgrams[len(in.dgrams)-1].bin) != bin {
			return fmt.Errorf("bin %d encoded no datagram; a paced pass cannot time its close", bin)
		}
		in.lastOfBin[bin] = len(in.dgrams) - 1
	}
	return nil
}

// anomalyKey is the identity two ledgers are compared on.
func anomalyKey(a netwide.Anomaly) string {
	return fmt.Sprintf("%s|%s|%d-%d|%v|%s|%s", a.Class, a.Measures, a.StartBin, a.EndBin, a.ODs, a.Truth, a.TruthType)
}

// ledgerDiff counts the entries of got that differ from want position by
// position, plus the length difference. With sortFirst the two are
// compared as multisets (batch and stream agree on the set of anomalies,
// not on the order they list them in).
func ledgerDiff(got, want []netwide.Anomaly, sortFirst bool) int {
	g, w := make([]string, len(got)), make([]string, len(want))
	for i, a := range got {
		g[i] = anomalyKey(a)
	}
	for i, a := range want {
		w[i] = anomalyKey(a)
	}
	if sortFirst {
		sort.Strings(g)
		sort.Strings(w)
	}
	n := min(len(g), len(w))
	diff := max(len(g), len(w)) - n
	for i := 0; i < n; i++ {
		if g[i] != w[i] {
			diff++
		}
	}
	return diff
}
