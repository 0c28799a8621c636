// Command shootout runs the detector-comparison harness: it simulates (or
// loads) a dataset, runs the full detector roster — the static subspace
// model, its periodically-refitting and per-bin-tracking variants, the
// empirical-measure (method-of-types) detector and the per-flow EWMA
// heuristic — over the same traffic and ground truth, and prints
// per-detector ROC, detection latency and attribution tables.
//
// Usage:
//
//	shootout -scenario adversarial.json [-weeks 2] [-train 2016] [-json]
//	shootout -in abilene.nwds -train 2016
//
// The text table reports, per detector: the area under the bin-level ROC,
// the true/false-positive rates at the detector's native threshold, the
// per-episode detection counts, mean detection latency and attribution
// accuracy, and the TPR at fixed false-positive caps from the ROC sweep.
// The episode grid below it shows each ground-truth episode's fate under
// each detector. -json emits the same numbers machine-readably.
package main

import (
	"flag"
	"log"
	"os"

	"netwide/internal/cli"
	"netwide/internal/engine"
	"netwide/internal/shootout"
	"netwide/internal/traffic"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit the report as JSON instead of text tables")
	c := cli.Parse("shootout", "compare anomaly detectors over one simulated scenario.\n\n"+
		"Without -in it simulates the run; -refit 0 drops the subspace-refit variant.",
		cli.Defaults{Weeks: 2, Train: traffic.BinsPerWeek, Refit: 144, Window: 2 * traffic.BinsPerDay},
		"in", "scenario", "topology", "weeks", "seed", "train", "refit", "window")

	run, label, err := c.Run()
	if err != nil {
		log.Fatal(err)
	}
	ds := run.Dataset()
	st := c.StreamConfig(ds.Bins)
	if st.TrainBins <= 0 || st.TrainBins >= ds.Bins {
		log.Fatalf("train %d bins outside (0,%d)", st.TrainBins, ds.Bins)
	}
	dets := []shootout.Detector{&shootout.Subspace{}}
	if st.RefitEvery > 0 {
		dets = append(dets, &shootout.Subspace{RefitEvery: st.RefitEvery, Window: st.Window})
	}
	dets = append(dets,
		&shootout.Subspace{Updater: engine.UpdaterIncremental, Window: st.Window},
		&shootout.Empirical{},
		&shootout.EWMA{},
	)
	ms, err := shootout.RunAll(ds, dets, st.TrainBins)
	if err != nil {
		log.Fatal(err)
	}
	report := shootout.NewReport(label, st.TrainBins, ms)
	if *jsonOut {
		err = report.WriteJSON(os.Stdout)
	} else {
		err = report.WriteText(os.Stdout)
	}
	if err != nil {
		log.Fatal(err)
	}
}
