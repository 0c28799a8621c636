// Command bench is the repository's wire-to-verdict benchmark: it drives
// the live collector over real loopback UDP with bins closing, checks every
// pass against a per-seed reference, and reports the end-to-end metrics of
// BENCHMARK.json — or, with -trace 1, the per-layer ones, measured from
// outside through each layer's exported functions. See README.md.
//
//	bash bench/run.sh -workload wire-v5-sync [-seed N] [-seconds S] [-trace 0|1]
//	bash bench/run.sh compare A.json B.json
//	bash bench/run.sh aa [-runs N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

var processStart = time.Now()

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		case "aa":
			return aaMain(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames()))
		seed    = fs.Uint64("seed", 2004, "seed the inputs are made from")
		seconds = fs.Float64("seconds", defaultSeconds, "time budget of the measuring rounds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced per-layer run")
		outDir  = fs.String("out", "bench/out", "directory for result files, traces and snapshots")
		smoke   = fs.Bool("smoke", false, "run the small self-test workload instead of -workload")
		drop    = fs.Int("drop-every", 0, "negative control: withhold every N-th datagram from the wire")
		grace   = fs.Int("grace", 0, "negative control: override the workload's reorder grace")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := smokeWorkload
	if !*smoke {
		var err error
		if w, err = findWorkload(*name); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	if *grace > 0 {
		w.grace = *grace
	}
	release, err := exclusive()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 3
	}
	defer release()
	res, err := runWorkload(runOpts{
		w: w, seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir,
		dropEvery: *drop, processStart: processStart, log: stdout,
	})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return res.report(stdout, stderr)
}
