package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// runSet is a set file: the runs of one commit, every workload, tracing
// off — what `bench aa` writes and `bench compare` reads.
type runSet struct {
	Runs []*result `json:"runs"`
}

func loadSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *runSet) write(path string) error {
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// values returns one metric's value per run of one workload, in run
// order, so that index i of two sets made with the same seeds is a pair.
func (s *runSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func (s *runSet) workloads() []string {
	var names []string
	seen := map[string]bool{}
	for _, r := range s.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	return names
}

// verdicts of one (metric, workload) pairing.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictGain       = "GAIN"
)

// minGainPairs is how many paired runs a gain claim needs.
const minGainPairs = 10

type comparison struct {
	metric, workload string
	n                int
	medianA, medianB float64
	spreadA, spreadB float64 // IQR as a share of the median
	worse            float64 // share of A's median by which B is worse (negative: better)
	bound            float64
	wins             int // pairs B won; a tie is a win for neither
	verdict          string
}

// compareMetric judges B against A on one pairing. A pair whose spread
// on either side exceeds the bound is unresolved, not unchanged: the
// benchmark cannot tell. A gain needs B to win at least nine tenths of at
// least ten pairs and the medians to differ by more than A's own
// inter-quartile range.
func compareMetric(def metricDef, workload string, a, b []float64) comparison {
	c := comparison{metric: def.name, workload: workload, n: min(len(a), len(b)), bound: def.bound}
	q1, m, q3 := quartiles(a)
	c.medianA, c.medianB = m, median(b)
	c.spreadA, c.spreadB = iqrShare(a), iqrShare(b)
	sign := 1.0 // lower is better: B is worse when larger
	if def.better == "higher" {
		sign = -1
	}
	if c.medianA != 0 {
		c.worse = sign * (c.medianB - c.medianA) / math.Abs(c.medianA)
	}
	for i := 0; i < c.n; i++ {
		if sign*(b[i]-a[i]) < 0 {
			c.wins++
		}
	}
	switch {
	case c.n == 0:
		c.verdict = verdictUnresolved
	case c.spreadA > c.bound || c.spreadB > c.bound:
		c.verdict = verdictUnresolved
	case c.worse > c.bound:
		c.verdict = verdictRegression
	case c.n >= minGainPairs && float64(c.wins) >= 0.9*float64(c.n) && c.worse < 0 && math.Abs(c.medianB-c.medianA) > q3-q1:
		c.verdict = verdictGain
	default:
		c.verdict = verdictOK
	}
	return c
}

// compareSets prints one row per (metric, workload) and returns how many
// pairings regressed, how many are unresolved, and how many runs failed
// their output checks.
func compareSets(a, b *runSet, w io.Writer) (regressions, unresolved, failedRuns int) {
	fmt.Fprintf(w, "%-22s %-20s %3s %12s %6s %12s %6s %8s %6s %5s  %s\n",
		"metric", "workload", "n", "median A", "iqr A", "median B", "iqr B", "worse", "bound", "wins", "verdict")
	for _, wl := range a.workloads() {
		for _, def := range endToEnd {
			c := compareMetric(def, wl, a.values(wl, def.name), b.values(wl, def.name))
			fmt.Fprintf(w, "%-22s %-20s %3d %12.6g %5.1f%% %12.6g %5.1f%% %+7.1f%% %5.0f%% %2d/%-2d  %s\n",
				c.metric, c.workload, c.n, c.medianA, 100*c.spreadA, c.medianB, 100*c.spreadB, 100*c.worse, 100*c.bound, c.wins, c.n, c.verdict)
			switch c.verdict {
			case verdictRegression:
				regressions++
			case verdictUnresolved:
				unresolved++
			}
		}
	}
	for i, s := range []*runSet{a, b} {
		for _, r := range s.Runs {
			if !r.Correct || r.Failed > 0 {
				failedRuns++
				fmt.Fprintf(w, "set %c: %s seed %d failed its output checks (%d of %d ops): %s\n",
					'A'+i, r.Workload, r.Seed, r.Failed, r.Attempted, strings.Join(r.Problems, "; "))
			}
		}
	}
	fmt.Fprintf(w, "%d regression(s), %d unresolved, %d failed run(s)\n", regressions, unresolved, failedRuns)
	return regressions, unresolved, failedRuns
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare A.json B.json")
		return 2
	}
	var sets [2]*runSet
	for i, path := range args {
		s, err := loadSet(path)
		if err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 2
		}
		sets[i] = s
	}
	if r, u, f := compareSets(sets[0], sets[1], stdout); r+u+f > 0 {
		return 1
	}
	return 0
}

// aaMain runs two full sets of the same code back to back, with the same
// seeds, and compares them: the check that the bounds are wider than the
// benchmark's own noise.
func aaMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench aa", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runs    = fs.Int("runs", minGainPairs, "runs per workload in each set, seeds seed..seed+runs-1")
		seed    = fs.Uint64("seed", 2004, "first seed")
		seconds = fs.Float64("seconds", defaultSeconds, "time budget of each run's measuring rounds")
		outDir  = fs.String("out", "bench/out", "directory for the set files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	release, err := exclusive()
	if err != nil {
		fmt.Fprintln(stderr, "bench aa:", err)
		return 3
	}
	defer release()
	var sets [2]*runSet
	for i, label := range []string{"A", "B"} {
		sets[i] = &runSet{}
		for _, w := range workloads {
			for r := 0; r < *runs; r++ {
				res, err := runWorkload(runOpts{w: w, seed: *seed + uint64(r), seconds: *seconds, outDir: *outDir, processStart: time.Now(), log: io.Discard})
				if err != nil {
					fmt.Fprintln(stderr, "bench aa:", err)
					return 1
				}
				fmt.Fprintf(stdout, "set %s %s seed %d: %.1fs correct=%v\n", label, w.name, res.Seed, res.WallS, res.Correct)
				sets[i].Runs = append(sets[i].Runs, res)
			}
		}
		if err := sets[i].write(filepath.Join(*outDir, "set-"+label+".json")); err != nil {
			fmt.Fprintln(stderr, "bench aa:", err)
			return 1
		}
	}
	if r, u, f := compareSets(sets[0], sets[1], stdout); r+u+f > 0 {
		return 1
	}
	return 0
}
