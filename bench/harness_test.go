package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// gives, because that is what the driver judges spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("iqrShare = %v, want 1 (5.5/5.5)", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

// A percentile is only reported when at least ten samples lie beyond it.
func TestHighPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := highPercentile(c.n); got != c.want {
			t.Errorf("highPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	if got := percentile(asc, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if s := summarize(asc); s.HighP != 90 || s.High != 90 || s.N != 100 || !near(s.Median, 50.5) {
		t.Errorf("summarize(1..100) = %+v", s)
	}
}

// Datagram i is due once the records through it have been produced at the
// offered rate; a template datagram shares its predecessor's due time.
func TestDueOffsets(t *testing.T) {
	dgrams := []datagram{{records: 10}, {records: 0}, {records: 30}, {records: 60}}
	due := dueOffsets(dgrams, 1000) // 1000 records/s: one record per ms
	want := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 40 * time.Millisecond, 100 * time.Millisecond}
	for i := range want {
		if due[i] != want[i] {
			t.Errorf("due[%d] = %v, want %v", i, due[i], want[i])
		}
	}
}

// records_per_s is the best rate over any rateWindowBins consecutive bins,
// whatever the bins around them did.
func TestBestWindowRate(t *testing.T) {
	// 1000 records a bin; a bin takes 1 ms, except one stretch of
	// rateWindowBins bins that take half that.
	n := 3 * rateWindowBins
	binStart, recordsBefore := make([]time.Duration, n), make([]int, n)
	var at time.Duration
	for b := range binStart {
		binStart[b], recordsBefore[b] = at, 1000*b
		if b >= rateWindowBins && b < 2*rateWindowBins {
			at += 500 * time.Microsecond
		} else {
			at += time.Millisecond
		}
	}
	if got, want := bestWindowRate(binStart, recordsBefore), 2e6; !near(got, want) {
		t.Errorf("best window rate = %v, want %v (1000 records per 0.5 ms)", got, want)
	}
	if got := bestWindowRate(binStart[:rateWindowBins], recordsBefore); got != 0 {
		t.Errorf("a pass of %d bins has no window, got rate %v", rateWindowBins, got)
	}
}

func TestSkew(t *testing.T) {
	if got := skew([]uint64{10, 10, 10, 10}); !near(got, 1) {
		t.Errorf("even skew = %v, want 1", got)
	}
	if got := skew([]uint64{40, 0}); !near(got, 2) {
		t.Errorf("one-sided skew = %v, want 2", got)
	}
	if got := skew(nil); got != 0 {
		t.Errorf("empty skew = %v, want 0", got)
	}
}

// The per-datagram send path must not allocate: the sender measures the
// daemon, not the garbage collector.
func TestSendPathDoesNotAllocate(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	in := &inputs{w: workload{conns: 2}}
	snd, err := dial(in, sink.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer snd.close()
	d := datagram{data: make([]byte, 1400), conn: 1}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := snd.write(d); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("send path allocates %v times per datagram, want 0", allocs)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{"m", "s", "lower", 0.10}
	higher := metricDef{"m", "1/s", "higher", 0.10}
	steady := func(center float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = center * (1 + 0.002*float64(i-5))
		}
		return xs
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady(100), steady(100), verdictOK},
		{"within bound", lower, steady(100), steady(108), verdictOK},
		{"slower", lower, steady(100), steady(115), verdictRegression},
		{"faster", lower, steady(100), steady(80), verdictGain},
		{"throughput down", higher, steady(100), steady(85), verdictRegression},
		{"throughput up", higher, steady(100), steady(120), verdictGain},
		{"noisy parent", lower, noisy, steady(100), verdictUnresolved},
		{"noisy change", lower, steady(100), noisy, verdictUnresolved},
		{"too few pairs for a gain", lower, steady(100)[:5], steady(80)[:5], verdictOK},
		{"no runs", lower, nil, nil, verdictUnresolved},
	} {
		if got := compareMetric(c.def, "w", c.a, c.b).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// Nine wins of ten is a gain, eight is not, however far the medians.
	a, b := steady(100), steady(80)
	b[0] = 101
	if got := compareMetric(lower, "w", a, b).verdict; got != verdictGain {
		t.Errorf("9/10 wins: verdict %q, want %q", got, verdictGain)
	}
	b[1] = 101
	if got := compareMetric(lower, "w", a, b).verdict; got != verdictOK {
		t.Errorf("8/10 wins: verdict %q, want %q", got, verdictOK)
	}
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// BENCHMARK.json and the tables the code reports from must say the same.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code default %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, workloads[i].name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if got := (metricDef{m.Name, m.Unit, m.Better, m.Bound}); got != endToEnd[i] {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in code", i, got, endToEnd[i])
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if got := (metricDef{m.Name, m.Unit, m.Better, 0}); got != perLayer[i] {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in code", i, got, perLayer[i])
		}
	}
}

// smokeInputs builds the self-test workload's inputs once per seed; the
// tests that drive the daemon share them.
var smokeInputs = map[uint64]*inputs{}

func smoke(t *testing.T, seed uint64) *inputs {
	t.Helper()
	if runtime.NumCPU() < 2 {
		t.Skip("the wire passes need a CPU each for the sender and the daemon")
	}
	if in, ok := smokeInputs[seed]; ok {
		return in
	}
	in, err := buildInputs(smokeWorkload, seed)
	if err != nil {
		t.Fatal(err)
	}
	smokeInputs[seed] = in
	return in
}

func smokeOpts(t *testing.T, seed uint64, trace bool) runOpts {
	return runOpts{w: smokeWorkload, seed: seed, seconds: 0.1, trace: trace, outDir: t.TempDir(), log: io.Discard}
}

func metricNames(defs []metricDef) map[string]string {
	names := map[string]string{}
	for _, d := range defs {
		names[d.name] = d.unit
	}
	return names
}

func checkEmits(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	want := metricNames(defs)
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s is in BENCHMARK.json but was not emitted", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s emitted in %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s was emitted but is not in BENCHMARK.json", name)
		}
	}
}

// The smoke workload runs end to end on another seed than the default:
// the seed must change the encoded bytes, every output check must still
// pass, and the result line must carry exactly the end-to-end metrics.
func TestSmokeEndToEnd(t *testing.T) {
	in := smoke(t, 7)
	res, err := in.measure(smokeOpts(t, 7, false), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < in.records {
		t.Fatalf("smoke run on seed 7: correct=%v failed=%d attempted=%d problems=%v", res.Correct, res.Failed, res.Attempted, res.Problems)
	}
	checkEmits(t, res, endToEnd)
	for name, m := range res.Metrics {
		if !(m.Value > 0) {
			t.Errorf("end-to-end metric %s = %v, must never be 0", name, m.Value)
		}
	}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]metricValue
	}
	dec := json.NewDecoder(strings.NewReader(res.lastLine()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil || !line.Correct || line.Attempted != res.Attempted || len(line.Metrics) != len(endToEnd) {
		t.Errorf("last line %q does not decode to the contract's object: %v", res.lastLine(), err)
	}
	if digest(in) == digest(smoke(t, 2004)) {
		t.Error("seed 7 and seed 2004 encode the same bytes: the seed does not reach the inputs")
	}
}

func digest(in *inputs) uint64 {
	h := fnv.New64a()
	for _, d := range in.dgrams {
		h.Write(d.data)
	}
	return h.Sum64()
}

// The traced run emits exactly the per-layer metrics and writes spans for
// every layer.
func TestSmokeTraced(t *testing.T) {
	in := smoke(t, 2004)
	o := smokeOpts(t, 2004, true)
	res, err := in.measure(o, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced smoke run failed its checks: %v", res.Problems)
	}
	checkEmits(t, res, perLayer)
	b, err := os.ReadFile(o.outDir + "/trace-smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		Names []string
		Spans [][5]int64
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range trace.Spans {
		seen[trace.Names[s[0]]] = true
		if s[2] < s[1] {
			t.Fatalf("span %v ends before it starts", s)
		}
	}
	for _, layer := range []string{"udp.recv", "flowwire.decode", "server.ingest", "server.close_bin", "server.drain",
		"stream.replay", "engine.fit", "engine.refit_warm", "engine.score_batch", "engine.update_incremental",
		"mat.pca_fit", "mat.covariance", "mat.symeigen", "identify.attribute", "events.aggregate", "classify.classify",
		"checkpoint.snapshot", "checkpoint.encode", "checkpoint.write_file", "checkpoint.read",
		"netwide.detect", "netwide.characterize"} {
		if !seen[layer] {
			t.Errorf("trace holds no %s span", layer)
		}
	}
}

// Negative control: a sender that withholds 1% of the datagrams must show
// as failed operations, a ledger mismatch and a non-zero exit — never as a
// slightly slower pass.
func TestDroppedDatagramsFailTheRun(t *testing.T) {
	in := smoke(t, 2004)
	o := smokeOpts(t, 2004, false)
	o.dropEvery = 100
	res, err := in.measure(o, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("dropping 1%% of the datagrams went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if !strings.Contains(strings.Join(res.Problems, "\n"), "ledger mismatch") {
		t.Errorf("no ledger mismatch reported; problems: %v", res.Problems)
	}
	var stdout, stderr bytes.Buffer
	if code := res.report(&stdout, &stderr); code == 0 {
		t.Error("a failed run exits 0")
	}
	if !strings.Contains(stdout.String(), `"correct":false`) {
		t.Errorf("last line does not say correct:false: %s", stdout.String())
	}
}
