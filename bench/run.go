package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"netwide"
)

// runOpts is one invocation of one workload.
type runOpts struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	outDir  string
	// dropEvery is the negative-control sender hook (0 = off).
	dropEvery int
	// processStart anchors setup_s; zero means "now".
	processStart time.Time
	log          io.Writer
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run: what the last stdout line carries, plus the detail
// the result file keeps (quartiles, sample counts, host facts, problems).
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Seconds   float64                `json:"seconds"`
	Host      hostFacts              `json:"host"`
	CalibMs   float64                `json:"calib_kernel_ms"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples summarises the per-pass or per-repetition samples behind every
	// metric that is the best or the median of several.
	Samples map[string]timing `json:"samples,omitempty"`
	WallS   float64           `json:"wall_s"`
}

func (r *result) set(name, unit string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *result) setMedian(name, unit string, xs []float64) {
	r.Samples[name] = summarize(xs)
	r.set(name, unit, median(xs))
}

// setBest reports the best of a run's samples — best being slices.Min for
// a time, slices.Max for a rate — and keeps their summary. The host shares
// its cores with neighbours no counter shows: a sample taken while one runs
// is 2-3x slow, so a run's median follows the neighbours and its best
// sample follows the code (README.md, "Why best-of").
func (r *result) setBest(name, unit string, xs []float64, best func([]float64) float64) {
	r.Samples[name] = summarize(xs)
	r.set(name, unit, best(xs))
}

func (r *result) absorb(label string, p *passResult) {
	r.Attempted += p.offered
	r.Failed += p.failed
	for _, problem := range p.problems {
		r.Problems = append(r.Problems, label+": "+problem)
	}
}

// lastLine is the contract's result object.
func (r *result) lastLine() string {
	b, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	return string(b)
}

func (r *result) write(dir string) error {
	kind := "e2e"
	if r.Trace {
		kind = "layers"
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("result-%s-seed%d-%s.json", r.Workload, r.Seed, kind)), append(b, '\n'), 0o644)
}

// printMetrics lists every metric by name with its unit, and the samples
// behind the medians.
func (r *result) printMetrics(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("  %-36s %14.6g %-8s", n, m.Value, m.Unit)
		if s, ok := r.Samples[n]; ok && s.N > 1 {
			line += fmt.Sprintf(" n=%d median=%.6g q1=%.6g q3=%.6g", s.N, s.Median, s.Q1, s.Q3)
			if s.HighP > 0 {
				line += fmt.Sprintf(" p%g=%.6g", s.HighP, s.High)
			}
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  ops attempted=%d failed=%d correct=%v (run took %.1fs, calib.kernel_ms %.2f)\n", r.Attempted, r.Failed, r.Correct, r.WallS, r.CalibMs)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
}

// runWorkload is one full run: inputs from the seed, then the measurement.
func runWorkload(o runOpts) (*result, error) {
	if o.processStart.IsZero() {
		o.processStart = time.Now()
	}
	in, err := buildInputs(o.w, o.seed)
	if err != nil {
		return nil, err
	}
	return in.measure(o, time.Since(o.processStart).Seconds())
}

// measure runs either the end-to-end phases (tracing off) or the traced
// per-layer run on inputs that took inputsS to make, and writes the result
// file.
func (in *inputs) measure(o runOpts, inputsS float64) (*result, error) {
	start := time.Now()
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	res := &result{
		Workload: o.w.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Host:    gatherHostFacts(o.outDir),
		Metrics: map[string]metricValue{}, Samples: map[string]timing{},
	}
	fmt.Fprintf(o.log, "%s seed %d: %d bins, %d datagrams, %d records, %d reference alarmed bins, %d reference anomalies (simulate %.2fs encode %.2fs reference %.2fs)\n",
		o.w.name, o.seed, o.w.bins, len(in.dgrams), in.records, len(in.refAlarmBins), len(in.refAnomalies), in.simulateS, in.encodeS, in.referenceS)
	res.CalibMs = calibKernel()
	var err error
	if o.trace {
		err = in.runTraced(o, res)
	} else {
		err = in.runEndToEnd(o, res, inputsS)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = len(res.Problems) == 0 && res.Failed == 0
	res.WallS = inputsS + time.Since(start).Seconds()
	if err := res.write(o.outDir); err != nil {
		return nil, err
	}
	return res, nil
}

// report prints a finished run the way the contract wants it — every
// metric by name with its unit, then the result object as the last line —
// and returns the process exit code: non-zero when an output check failed.
func (r *result) report(stdout, stderr io.Writer) int {
	r.printMetrics(stdout)
	fmt.Fprintln(stdout, r.lastLine())
	if !r.Correct {
		fmt.Fprintln(stderr, "bench: output checks failed")
		return 1
	}
	return 0
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func (in *inputs) runEndToEnd(o runOpts, res *result, inputsS float64) error {
	w := in.w
	budget := time.Duration(o.seconds * float64(time.Second))
	in.snapshotPath = filepath.Join(o.outDir, "ckpt-"+w.name+".nwcp")
	defer os.Remove(in.snapshotPath)
	coldS, err := in.coldStart()
	if err != nil {
		return err
	}
	// Set-up is what stands between a seed and the first timed datagram:
	// the inputs plus the one cold daemon.
	res.set("setup_s", "s", inputsS+coldS)
	fmt.Fprintf(o.log, "  cold server.New+Start %.3fs\n", coldS)

	passes := 0
	runOne := func(po passOpts, label string) (*passResult, error) {
		p, err := in.runPass(po)
		if err != nil {
			return nil, fmt.Errorf("%s pass: %w", label, err)
		}
		res.absorb(fmt.Sprintf("%s pass %d", label, passes), p)
		passes++
		fmt.Fprintf(o.log, "  %-11s new %.3fs wall %.3fs drain %.3fs %.0f rec/s\n", label, p.newS, p.wallS, p.drainS, p.recordsPerS())
		return p, nil
	}

	var passRate, windowRate, restoreS []float64
	phase := time.Now()
	for i := 0; i < maxRounds && (i < minRounds || time.Since(phase) < budget); i++ {
		p, err := runOne(passOpts{dropEvery: o.dropEvery}, "closed-loop")
		if err != nil {
			return err
		}
		passRate = append(passRate, p.recordsPerS())
		windowRate = append(windowRate, bestWindowRate(p.binStart, in.recordsBefore))

		secs, problems := in.timeRestores()
		restoreS = append(restoreS, secs...)
		res.Problems = append(res.Problems, problems...)
	}
	res.setBest("records_per_s", "1/s", windowRate, slices.Max)
	res.Samples["records_per_s_pass"] = summarize(passRate)
	res.setBest("restore_s", "s", restoreS, slices.Min)

	p, err := runOne(passOpts{paced: true, dropEvery: o.dropEvery}, "paced")
	if err != nil {
		return err
	}
	if len(p.latencyMs) < w.minAlarmedBins {
		res.Problems = append(res.Problems, fmt.Sprintf("paced pass saw %d alarmed bins; p90 needs at least %d", len(p.latencyMs), w.minAlarmedBins))
	}
	asc := sorted(p.latencyMs)
	res.Samples["alarm_latency_ms_p50"] = summarize(p.latencyMs)
	res.set("alarm_latency_ms_p50", "ms", percentile(asc, 50))
	res.set("alarm_latency_ms_p90", "ms", percentile(asc, 90))
	res.Samples["gen.late_ms"] = summarize(p.lateMs)
	return nil
}

// batch is the paper's offline pipeline on the workload's dataset.
func (in *inputs) batch() ([]netwide.Anomaly, error) {
	if err := in.run.Detect(netwide.DefaultDetectOptions()); err != nil {
		return nil, fmt.Errorf("batch detect: %w", err)
	}
	return in.run.Characterize(), nil
}

// checkBatch holds the batch anomaly list against the one the stream
// reference characterised — the parity the repository already pins. It
// only holds when the reference replayed the whole run on a static model
// (a tracked model evolves; a partial replay flushes open events early).
func (in *inputs) checkBatch(anoms []netwide.Anomaly) []string {
	if len(anoms) == 0 {
		return []string{"batch pipeline characterised no anomaly"}
	}
	if in.w.updater != "" || in.w.bins != in.run.Bins() {
		return nil
	}
	if d := ledgerDiff(anoms, in.refAnomalies, true); d != 0 {
		return []string{fmt.Sprintf("batch/stream mismatch: %d of %d batch anomalies differ from the stream reference's %d", d, len(anoms), len(in.refAnomalies))}
	}
	return nil
}
