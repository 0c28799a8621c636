// Command abilenegen generates a synthetic OD-flow dataset — the three
// sampled traffic matrices plus an injected ground-truth anomaly population
// — and writes it to a file for the other tools. Despite the historical
// name it generates any supported backbone: the reference Abilene network,
// the bundled Géant-like one, or deterministic synthetic backbones up to
// 200 PoPs.
//
// Usage:
//
//	abilenegen -weeks 4 -seed 2004 -rate 2e6 -out abilene.nwds
//	abilenegen -topology geant -out geant.nwds
//	abilenegen -topology synthetic:100 -weeks 1 -out synth100.nwds
//	abilenegen -scenario ddos-day.json -out ddos.nwds
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"netwide"
	"netwide/internal/cli"
)

func main() {
	smpl := flag.Float64("sampling", 0.01, "packet sampling probability")
	unres := flag.Float64("unresolved", 0.07, "fraction of flow records failing OD resolution")
	out := flag.String("out", "abilene.nwds", "output dataset file")
	c := cli.Parse("abilenegen", "generate a synthetic OD-flow dataset.\n\n"+
		"Simulates gravity-model backbone traffic with injected ground-truth anomalies,\n"+
		"measures it through 1% packet sampling, NetFlow export and OD resolution, and\n"+
		"writes the three B/P/F matrices plus the anomaly ledger to -out.\n\n"+
		"Examples:\n"+
		"  abilenegen -weeks 4 -seed 2004 -out abilene.nwds\n"+
		"  abilenegen -topology geant -out geant.nwds\n"+
		"  abilenegen -topology synthetic:100:7 -weeks 1 -out synth100.nwds\n"+
		"  abilenegen -scenario ddos-day.json -weeks 1 -out ddos.nwds\n\n"+
		"Scenario files are JSON: {\"name\": ..., \"episodes\": [{\"type\": \"ddos\",\n"+
		"\"start_bin\": 288, \"duration_bins\": 4, \"magnitude\": 9, \"dest\": \"LOSA\"}, ...]}.\n"+
		"See README.md for the full episode reference.",
		cli.Defaults{Weeks: 4, Rate: 2e6}, "weeks", "seed", "rate", "workers", "topology", "scenario")

	cfg, err := c.Config()
	if err != nil {
		log.Fatal(err)
	}
	cfg.SamplingRate, cfg.UnresolvedFraction = *smpl, *unres
	run, err := netwide.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := run.Save(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	red := run.Reduction()
	fmt.Printf("wrote %s: %d bins x %d OD pairs x 3 measures (%s)\n",
		*out, run.Bins(), run.Dataset().NumODPairs(), run.Dataset().Top.Name)
	fmt.Printf("collected %d flow records (%d unresolved), injected %d ground-truth anomalies\n",
		red.RawRecords, red.Unresolved, len(run.GroundTruth()))
}
