// Command anomalyreport detects, aggregates and classifies the anomalies
// of a dataset, printing the characterization tables (Table 1, Table 3) and
// the scope histograms (Figure 2), plus the detection score against the
// injected ground truth. With -v it lists every event with its class,
// evidence and OD pairs.
//
// Usage:
//
//	anomalyreport -in abilene.nwds [-k 4] [-alpha 0.001] [-v]
package main

import (
	"fmt"
	"log"

	"netwide"
	"netwide/internal/cli"
)

func main() {
	c := cli.Parse("anomalyreport", "detect, aggregate and classify the anomalies of a dataset.\n\n"+
		"Prints the characterization tables (Table 1, Table 3), the scope histograms\n"+
		"(Figure 2) and the detection score against the injected ground truth.",
		cli.Defaults{In: "abilene.nwds"}, "in", "k", "alpha", "v")

	run, _, err := c.Run()
	if err != nil {
		log.Fatal(err)
	}
	if err := run.Detect(c.DetectOptions()); err != nil {
		log.Fatal(err)
	}
	anoms := run.Characterize()

	fmt.Println("== Table 1: anomalies per traffic-type combination ==")
	fmt.Print(netwide.RenderTable1(run.Table1()))
	fmt.Println()

	dur, ods := run.Figure2()
	fmt.Println("== Figure 2a: anomaly duration ==")
	fmt.Print(netwide.RenderHistogram(dur, "duration (minutes)"))
	fmt.Println("== Figure 2b: OD flows per anomaly ==")
	fmt.Print(netwide.RenderHistogram(ods, "# OD pairs in anomaly"))
	fmt.Println()

	fmt.Println("== Table 3: anomaly classes per traffic type ==")
	fmt.Print(netwide.RenderTable3(run.Table3()))
	fmt.Println()

	score := run.Score()
	fmt.Printf("ground truth: %d/%d injected anomalies detected; %d/%d events matched truth\n",
		score.InjectedFound, score.InjectedTotal, score.EventsMatched, score.Events)
	fmt.Printf("false alarm rate %.1f%%, unknown rate %.1f%% (paper: ~8%% and ~10%%)\n",
		100*score.FalseAlarmRate, 100*score.UnknownRate)

	if c.Verbose() {
		fmt.Println("\n== classified anomalies ==")
		for _, a := range anoms {
			truth := ""
			if a.TruthType != "" {
				truth = " [truth: " + a.TruthType + "]"
			}
			fmt.Printf("%-12s %-4s %s %4v  %s%s  ODs %v\n", a.Class, a.Measures,
				netwide.FormatBin(a.StartBin), a.Duration, a.Why, truth, a.ODs)
		}
	}
}
