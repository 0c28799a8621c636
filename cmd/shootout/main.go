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
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"netwide"
	"netwide/internal/engine"
	"netwide/internal/scenario"
	"netwide/internal/shootout"
	"netwide/internal/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shootout: ")
	var (
		in       = flag.String("in", "", "dataset file from abilenegen (skips simulation)")
		scenPath = flag.String("scenario", "", "scenario JSON driving the simulated anomalies")
		topo     = flag.String("topology", "", `topology: "abilene" (default), "geant", or "synthetic:N[:seed]"`)
		weeks    = flag.Int("weeks", 2, "weeks of traffic to simulate")
		seed     = flag.Uint64("seed", 2004, "simulation seed")
		train    = flag.Int("train", traffic.BinsPerWeek, "training prefix in bins (default: one week)")
		refit    = flag.Int("refit", 144, "refit cadence of the subspace-refit variant in bins (0 disables the variant)")
		window   = flag.Int("window", 2*traffic.BinsPerDay, "rolling refit window of subspace-refit and forgetting horizon of subspace-incremental, in bins (must exceed the OD-pair count)")
		jsonOut  = flag.Bool("json", false, "emit the report as JSON instead of text tables")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"shootout: compare anomaly detectors over one simulated scenario.\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	run, label, err := loadOrSimulate(*in, *scenPath, *topo, *weeks, *seed)
	if err != nil {
		log.Fatal(err)
	}
	ds := run.Dataset()
	if *train <= 0 || *train >= ds.Bins {
		log.Fatalf("train %d bins outside (0,%d)", *train, ds.Bins)
	}
	dets := []shootout.Detector{&shootout.Subspace{}}
	if *refit > 0 {
		dets = append(dets, &shootout.Subspace{RefitEvery: *refit, Window: *window})
	}
	dets = append(dets,
		&shootout.Subspace{Updater: engine.UpdaterIncremental, Window: *window},
		&shootout.Empirical{},
		&shootout.EWMA{},
	)
	ms, err := shootout.RunAll(ds, dets, *train)
	if err != nil {
		log.Fatal(err)
	}
	report := shootout.NewReport(label, *train, ms)
	if *jsonOut {
		err = report.WriteJSON(os.Stdout)
	} else {
		err = report.WriteText(os.Stdout)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func loadOrSimulate(in, scenPath, topo string, weeks int, seed uint64) (*netwide.Run, string, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		run, err := netwide.LoadRun(f)
		if err != nil {
			return nil, "", err
		}
		return run, filepath.Base(in), nil
	}
	cfg := netwide.QuickConfig()
	cfg.Weeks = weeks
	cfg.Seed = seed
	cfg.Topology = topo
	label := "random schedule"
	if scenPath != "" {
		scen, err := scenario.LoadFile(scenPath)
		if err != nil {
			return nil, "", err
		}
		cfg.Scenario = scen
		label = scen.Name
		if label == "" {
			label = strings.TrimSuffix(filepath.Base(scenPath), ".json")
		}
	}
	run, err := netwide.Simulate(cfg)
	return run, label, err
}
