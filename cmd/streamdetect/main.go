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
//	streamdetect [-weeks 1] [-seed 2004] [-train 2016] [-batch 16]
//	             [-refit 288] [-window 2016] [-workers 0] [-v]
//
// With -in it replays a dataset written by abilenegen instead of
// simulating one.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"netwide"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("streamdetect: ")
	var (
		in      = flag.String("in", "", "replay this abilenegen dataset instead of simulating")
		weeks   = flag.Int("weeks", 1, "weeks to simulate when -in is empty")
		seed    = flag.Uint64("seed", 2004, "simulation seed")
		rate    = flag.Float64("rate", 8e5, "mean offered load, bytes/second")
		k       = flag.Int("k", 4, "normal subspace dimension")
		alpha   = flag.Float64("alpha", 0.001, "detection false-alarm rate")
		train   = flag.Int("train", 0, "training bins (0 = first half of the run)")
		batch   = flag.Int("batch", 16, "most vectors scored per model application (a backlog fills it; an idle detector scores each bin at once)")
		updater = flag.String("updater", "refit", "model lifecycle: refit (generation swaps every -refit bins) or incremental (per-bin subspace tracking, at most one bin stale)")
		refit   = flag.Int("refit", 288, "bins between model refits (0 = never); under -updater incremental, the drift-correction cadence")
		window  = flag.Int("window", 0, "rolling refit window in bins (0 = training length); under -updater incremental, the tracker's forgetting horizon")
		workers = flag.Int("workers", 0, "linear-algebra worker goroutines (0 = GOMAXPROCS)")
		topo    = flag.String("topology", "abilene", "backbone topology when simulating: abilene, geant, or synthetic:N[:seed]")
		verbose = flag.Bool("v", false, "print every alarmed bin, not just the summary")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"streamdetect: concurrent streaming subspace detection over a simulated or saved run.\n\n"+
				"The first -train bins fit one model per traffic measure (B, P, F); the rest\n"+
				"stream through the batched concurrent pipeline with rolling refits.\n\n"+
				"Flags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var run *netwide.Run
	var err error
	if *in != "" {
		f, ferr := os.Open(*in)
		if ferr != nil {
			log.Fatal(ferr)
		}
		run, err = netwide.LoadRun(f)
		f.Close()
	} else {
		cfg := netwide.QuickConfig()
		cfg.Weeks, cfg.Seed, cfg.MeanRateBps = *weeks, *seed, *rate
		cfg.Topology = *topo
		run, err = netwide.Simulate(cfg)
	}
	if err != nil {
		log.Fatal(err)
	}

	trainBins := *train
	if trainBins <= 0 {
		trainBins = run.Bins() / 2
	}
	winBins := *window
	if winBins <= 0 {
		winBins = trainBins
	}
	if *workers > 0 {
		netwide.SetMathWorkers(*workers)
	}
	det, err := run.NewStreamDetector(
		netwide.DetectOptions{K: *k, Alpha: *alpha},
		netwide.StreamConfig{
			TrainBins:  trainBins,
			BatchSize:  *batch,
			Updater:    *updater,
			RefitEvery: *refit,
			Window:     winBins,
		})
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	verdicts, err := det.Replay(trainBins, run.Bins())
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
		if *verbose {
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

	matched := 0
	fmt.Printf("\ncharacterized anomalies (%d, closed at streaming time):\n", len(anomalies))
	fmt.Printf("%-11s %-4s %-28s %7s %4s  %s\n", "CLASS", "MEAS", "WINDOW", "DUR", "ODS", "TRUTH")
	for _, a := range anomalies {
		truth := a.Truth
		if truth == "" {
			truth = "-"
		} else {
			matched++
		}
		window := netwide.FormatBin(a.StartBin)
		if a.EndBin != a.StartBin {
			window += ".." + netwide.FormatBin(a.EndBin)
		}
		fmt.Printf("%-11s %-4s %-28s %6dm %4d  %s\n",
			a.Class, a.Measures, window, int(a.Duration.Minutes()), len(a.ODs), truth)
	}
	fmt.Printf("matched to injected ground truth: %d/%d\n", matched, len(anomalies))
}
