package netwide_test

import (
	"fmt"
	"maps"
	"slices"

	"netwide"
	"netwide/internal/anomaly"
)

// ExampleSimulate builds a one-week synthetic measurement run: gravity-model
// background traffic with diurnal structure, an injected ground-truth
// anomaly population, 1% packet sampling, NetFlow export and OD resolution.
func ExampleSimulate() {
	run, err := netwide.Simulate(netwide.QuickConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("bins: %d (one week of 5-minute bins)\n", run.Bins())
	fmt.Printf("injected anomalies: %d\n", len(run.GroundTruth()))
	// Output:
	// bins: 2016 (one week of 5-minute bins)
	// injected anomalies: 85
}

// ExampleRun_Detect runs the subspace method over all three traffic
// matrices and characterizes the aggregated events against ground truth.
func ExampleRun_Detect() {
	run, err := netwide.Simulate(netwide.QuickConfig())
	if err != nil {
		panic(err)
	}
	if err := run.Detect(netwide.DefaultDetectOptions()); err != nil {
		panic(err)
	}
	anoms := run.Characterize()
	matched := 0
	for _, a := range anoms {
		if a.Truth != "" {
			matched++
		}
	}
	fmt.Printf("events: %d, matched to injected ground truth: %d\n", len(anoms), matched)
	fmt.Printf("first event starts %s\n", netwide.FormatBin(anoms[0].StartBin))
	// Output:
	// events: 195, matched to injected ground truth: 82
	// first event starts day 1 01:05
}

// ExampleRun_NewStreamDetector trains the concurrent streaming pipeline on
// the first half of a run and replays the second half through it: three
// per-measure scoring lanes, batched model application, one ordered
// verdict stream.
func ExampleRun_NewStreamDetector() {
	run, err := netwide.Simulate(netwide.QuickConfig())
	if err != nil {
		panic(err)
	}
	half := run.Bins() / 2
	det, err := run.NewStreamDetector(netwide.DefaultDetectOptions(), netwide.StreamConfig{
		TrainBins: half,
		BatchSize: 16,
	})
	if err != nil {
		panic(err)
	}
	verdicts, err := det.Replay(half, run.Bins())
	if err != nil {
		panic(err)
	}
	ordered := true
	alarmed := 0
	for i, v := range verdicts {
		if v.Bin != half+i {
			ordered = false
		}
		if v.Alarm() {
			alarmed++
		}
	}
	fmt.Printf("verdicts: %d, in submission order: %v\n", len(verdicts), ordered)
	fmt.Printf("alarmed bins: %d\n", alarmed)
	// Output:
	// verdicts: 1008, in submission order: true
	// alarmed bins: 83
}

// printStory prints a run's injected ground truth, the events matched to
// it with their class, measures and evidence, and how many other events
// the method raised.
func printStory(run *netwide.Run) {
	fmt.Println("injected (ground truth):")
	for _, g := range run.GroundTruth() {
		fmt.Printf("  #%d %-10s %s for %d min across %d OD pairs: %s\n", g.ID, g.Type,
			netwide.FormatBin(g.StartBin), (g.EndBin-g.StartBin+1)*5, len(g.ODs), g.Note)
	}
	fmt.Println("truth-matched events:")
	other := 0
	for _, a := range run.Characterize() {
		if a.TruthType == "" {
			other++
			continue
		}
		fmt.Printf("  %-11s [%s] %s for %v on %v: %s\n", a.Class, a.Measures,
			netwide.FormatBin(a.StartBin), a.Duration, a.ODs, a.Why)
	}
	fmt.Printf("other events: %d\n", other)
}

// Example_dosAttack tells the DOS story of the paper's Figure 1 (the port
// 110 and 113 attacks of Section 3): a week whose schedule asks only for
// denial-of-service attacks, of which it holds one DOS and one DDOS. Both
// are caught in packet and flow counts, not bytes — a flood has per-packet
// effects, not payload volume (Section 4) — as a spike toward one
// destination with no dominant source. The method raises some 800 other
// events on the same week.
func Example_dosAttack() {
	run, err := scheduledRun(42, func(s *anomaly.ScheduleConfig) { s.DOSes, s.DDOSes = 6, 2 })
	if err != nil {
		panic(err)
	}
	printStory(run)
	// Output:
	// injected (ground truth):
	//   #1 DOS        day 4 19:45 for 15 min across 1 OD pairs: dos against 10.164.0.65:0 from 1 OD flows
	//   #2 DDOS       day 6 05:00 for 20 min across 2 OD pairs: dos against 10.112.0.54:0 from 2 OD flows
	// truth-matched events:
	//   DOS         [FP] day 4 19:45 for 15m0s on [ATLA->WASH]: packet/flow flood at 10.164.0.0/21:0, no dominant source
	//   DDOS        [FP] day 6 05:00 for 20m0s on [DNVR->NYCM WASH->NYCM]: packet/flow flood at 10.112.0.0/21:0, no dominant source
	// other events: 817
}

// Example_wormScan shows the flow-count view: worm propagation (SQL-Snake
// on port 1433) and network scanning, the anomaly types the paper finds
// almost only in the IP-flow timeseries, since each probe opens a new flow
// while moving almost no packets or bytes. The tally counts the
// truth-matched events per traffic-type combination: each includes F.
func Example_wormScan() {
	run, err := scheduledRun(1433, func(s *anomaly.ScheduleConfig) { s.Scans, s.Worms = 6, 2 })
	if err != nil {
		panic(err)
	}
	printStory(run)
	tally := map[string]int{}
	for _, a := range run.Characterize() {
		if a.TruthType != "" {
			tally[a.Measures]++
		}
	}
	fmt.Println("truth-matched events per traffic-type combination:")
	for _, set := range slices.Sorted(maps.Keys(tally)) {
		fmt.Printf("  %-4s %d\n", set, tally[set])
	}
	// Output:
	// injected (ground truth):
	//   #1 SCAN       day 6 11:25 for 10 min across 1 OD pairs: network scan from 10.32.4.122 for port 445
	//   #2 WORM       day 3 03:25 for 20 min across 3 OD pairs: worm propagation on port 1433 across 3 OD flows
	// truth-matched events:
	//   WORM        [F] day 3 03:25 for 15m0s on [CHIN->NYCM CHIN->WASH]: propagation on port 1433, no dominant hosts
	//   WORM        [FP] day 3 03:25 for 20m0s on [ATLA->CHIN CHIN->WASH WASH->KSCY]: propagation on port 1433, no dominant hosts
	//   WORM        [F] day 3 03:40 for 5m0s on [WASH->KSCY]: propagation on port 1433, no dominant hosts
	//   SCAN        [FP] day 6 11:25 for 10m0s on [DNVR->CHIN]: probes from 10.32.0.0/21, pkts~flows
	// other events: 811
	// truth-matched events per traffic-type combination:
	//   F    2
	//   FP   2
}

// Example_opsMonitor pins the operational-events story as the method tells
// it today, which is not the paper's: a PoP outage and a multihomed
// customer shifting its ingress from LOSA to SNVA. The 350-minute KSCY
// outage is missed — no event matches it — and the three events matching
// the ingress shift are all classified FALSE-ALARM.
func Example_opsMonitor() {
	run, err := scheduledRun(17, func(s *anomaly.ScheduleConfig) { s.Outages, s.IngressShifts = 1, 2 })
	if err != nil {
		panic(err)
	}
	printStory(run)
	// Output:
	// injected (ground truth):
	//   #1 OUTAGE     day 2 03:45 for 350 min across 21 OD pairs: outage at KSCY
	//   #2 INGR-SHIFT day 5 22:35 for 45 min across 22 OD pairs: ingress shift LOSA -> SNVA (share 0.63)
	// truth-matched events:
	//   FALSE-ALARM [F] day 5 22:35 for 20m0s on [LOSA->CHIN LOSA->NYCM LOSA->WASH]: no cell deviates from baseline (max |z| = 2.5)
	//   FALSE-ALARM [FP] day 5 22:55 for 5m0s on [LOSA->NYCM]: no cell deviates from baseline (max |z| = 1.7)
	//   FALSE-ALARM [F] day 5 23:00 for 20m0s on [LOSA->NYCM LOSA->WASH]: no cell deviates from baseline (max |z| = 2.0)
	// other events: 799
}
