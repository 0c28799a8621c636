// Command paper regenerates every table and figure of the paper's
// evaluation section from a fresh simulation (see DESIGN.md's
// per-experiment index):
//
//	Figure 1  state/residual/T² timeseries for B, P, F  (-fig1csv writes CSV)
//	Table 1   anomaly counts per traffic-type combination
//	Figure 2  histograms of anomaly duration and OD-flow count
//	Table 2   feature evidence per injected anomaly type
//	Table 3   anomaly classes per traffic type
//	E7        k / alpha / T² ablation
//	E8        data reduction from OD aggregation
//	E9        single-link baseline detectors vs the subspace method
//
// Usage:
//
//	paper [-weeks 4] [-seed 2004] [-rate 2e6] [-fig1csv fig1.csv] [-quick]
//
// -quick sets the defaults of -weeks and -rate to a 1-week run at 8e5
// bytes/second; flags given explicitly still win.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"netwide"
	"netwide/internal/cli"
	"netwide/internal/stats"
)

func main() {
	fig1csv := flag.String("fig1csv", "", "write Figure 1 series to this CSV file")
	c := cli.Parse("paper", "regenerate every table and figure of the paper's evaluation section\n"+
		"from a fresh simulation (the E1..E9 experiment index in DESIGN.md).\n\n"+
		"Examples:\n"+
		"  paper -quick\n"+
		"  paper -topology geant -weeks 2\n"+
		"  paper -topology synthetic:50 -quick -scenario episodes.json",
		cli.Defaults{Weeks: 4, Rate: 2e6}, "weeks", "seed", "rate", "quick", "workers", "topology", "scenario")

	cfg, err := c.Config()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulating %d week(s), seed %d ...\n", cfg.Weeks, cfg.Seed)
	run, err := netwide.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := run.Detect(netwide.DefaultDetectOptions()); err != nil {
		log.Fatal(err)
	}

	// Figure 1: the paper plots a 3.5-day window (1008 bins).
	fmt.Println("\n== Figure 1: subspace method on the three traffic types (3.5-day window) ==")
	window := min(1008, run.Bins())
	series, err := run.Figure1(0, window)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range series {
		var speAbove, t2Above int
		for i := range s.SPE {
			if s.SPE[i] > s.QLimit {
				speAbove++
			}
			if s.T2[i] > s.T2Limit {
				t2Above++
			}
		}
		fmt.Printf("  %s: state mean %.3g; SPE>Q at %d bins (Q=%.3g); T2>limit at %d bins (limit=%.3g)\n",
			s.Measure, stats.Mean(s.State), speAbove, s.QLimit, t2Above, s.T2Limit)
	}
	if *fig1csv != "" {
		f, err := os.Create(*fig1csv)
		if err != nil {
			log.Fatal(err)
		}
		if err := run.WriteFigure1CSV(f, 0, window); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  series written to %s\n", *fig1csv)
	}

	fmt.Println("\n== Table 1: anomalies per traffic-type combination ==")
	fmt.Print(netwide.RenderTable1(run.Table1()))
	fmt.Println("   (paper, 4 weeks:  B 74   F 142   P 102   BF 0   BP 27   FP 28   BFP 10)")

	fmt.Println("\n== Figure 2: anomaly scope ==")
	dur, ods := run.Figure2()
	fmt.Print(netwide.RenderHistogram(dur, "Figure 2a: duration (minutes)"))
	fmt.Print(netwide.RenderHistogram(ods, "Figure 2b: # OD pairs in anomaly"))

	fmt.Println("\n== Table 2: observed feature signatures per injected type ==")
	for _, line := range run.Table2Evidence() {
		fmt.Println("  " + line)
	}

	fmt.Println("\n== Table 3: anomaly classes per traffic type ==")
	fmt.Print(netwide.RenderTable3(run.Table3()))
	score := run.Score()
	fmt.Printf("ground-truth recall %d/%d; false alarms %.1f%% (paper ~8%%); unknown %.1f%% (paper ~10%%)\n",
		score.InjectedFound, score.InjectedTotal, 100*score.FalseAlarmRate, 100*score.UnknownRate)

	fmt.Println("\n== E7: ablation (k, alpha, T² on/off) ==")
	pts, err := run.Ablation([]int{2, 4, 6, 8}, []float64{0.001})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("    k  alpha   T2   events  SPEbins  T2bins  truth-recall")
	for _, pt := range pts {
		fmt.Printf("  %3d  %.3f  %-5v %6d  %7d %7d  %.2f\n",
			pt.K, pt.Alpha, pt.UseT2, pt.Events, pt.SPEAlarmBins, pt.T2AlarmBins, pt.TruthRecall)
	}

	fmt.Println("\n== E8: data reduction from OD aggregation ==")
	red := run.Reduction()
	fmt.Printf("  %d raw flow records (%d unresolved) -> %d matrix cells: %.0fx reduction\n",
		red.RawRecords, red.Unresolved, red.MatrixCells, red.ReductionRatio)

	fmt.Println("\n== E9: single-link baselines vs subspace ==")
	bs, err := run.Baselines()
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range bs {
		fmt.Printf("  %-20s alarm bins %5d   ground-truth recall %.2f\n", b.Name, b.AlarmBins, b.TruthRecall)
	}
}
