// Command streamdetect replays a simulated measurement run through the
// concurrent streaming detection pipeline (StreamDetector): the leading
// bins train one model per traffic measure, then every remaining 5-minute
// bin is fanned out to per-measure scoring workers, scored in batches,
// merged into one ordered verdict stream, and — when -refit is on — each
// measure's lane refits its model on a rolling window (warm-started from
// the previous model generation) every -refit bins, before it scores the
// next bin, so a run's output depends on its flags alone.
//
// Beyond raw alarms, every alarm is characterized at streaming time:
// attributed to its OD flows, aggregated into cross-measure events, and
// classified against the paper's taxonomy the moment the event closes.
// The characterized anomalies print as a table with CLASS, MEAS(ures),
// WINDOW, DUR(ation), OD flows and the matched ground truth.
//
// Usage:
//
//	streamdetect [-weeks 1] [-seed 2004] [-train 1008] [-batch 16]
//	             [-refit 288] [-window 0] [-workers 0] [-v]
//
// With -in it replays a dataset written by abilenegen instead of
// simulating one.
package main

import (
	"fmt"
	"log"
	"time"

	"netwide"
	"netwide/internal/cli"
	"netwide/internal/traffic"
)

func main() {
	c := cli.Parse("streamdetect", "concurrent streaming subspace detection over a simulated or saved run.\n\n"+
		"The first -train bins fit one model per traffic measure (B, P, F); the rest\n"+
		"stream through the batched concurrent pipeline with rolling refits.\n"+
		"Without -in it simulates the run.",
		cli.Defaults{Weeks: 1, Rate: 8e5, Train: traffic.BinsPerWeek / 2, Refit: 288},
		"in", "weeks", "seed", "rate", "topology", "workers", "k", "alpha", "train", "batch", "updater", "refit", "window", "v")

	run, _, err := c.Run()
	if err != nil {
		log.Fatal(err)
	}
	st := c.StreamConfig(run.Bins())
	det, err := run.NewStreamDetector(c.DetectOptions(), st)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	verdicts, err := det.Replay(st.TrainBins, run.Bins())
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	alarms := 0
	var anomalies []netwide.Anomaly
	for _, v := range verdicts {
		anomalies = append(anomalies, v.Anomalies...)
		if !v.Alarm() {
			continue
		}
		alarms++
		if c.Verbose() {
			top := ""
			for _, pt := range v.Points {
				if pt.SPEAlarm || pt.T2Alarm {
					top = pt.TopOD
					break
				}
			}
			fmt.Printf("%-14s %-3s gen %v  SPE(B)=%.3g  top %s\n",
				netwide.FormatBin(v.Bin), v.Measures, v.Generations, v.Points[0].SPE, top)
		}
	}
	fr := det.Freshness()
	rate5 := float64(len(verdicts)) / elapsed.Seconds()
	fmt.Printf("streamed %d bins in %v (%.0f bins/s, 3 measures each)\n", len(verdicts), elapsed.Round(time.Millisecond), rate5)
	fmt.Printf("alarmed bins: %d   model generations (B P F): %d %d %d\n", alarms, fr[0].Gen, fr[1].Gen, fr[2].Gen)
	if fr[0].Kind == "incremental" {
		fmt.Printf("per-bin model updates (B P F): %d %d %d   staleness: %d bin(s)\n",
			fr[0].Updates, fr[1].Updates, fr[2].Updates, fr[0].Staleness)
	}

	fmt.Printf("\ncharacterized anomalies (%d, closed at streaming time):\n", len(anomalies))
	cli.PrintAnomalies(anomalies)
}
