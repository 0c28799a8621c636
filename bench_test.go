package netwide_test

// The benchmark harness regenerates every evaluation artifact of the paper
// (DESIGN.md experiment index E1..E11). Each benchmark covers the
// computation behind one table or figure; BenchmarkSimulateWeek and
// BenchmarkDetect cover the two pipeline stages everything else shares.
//
// Run with: go test -bench=. -benchmem .

import (
	"io"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"netwide"
	"netwide/internal/dataset"
	"netwide/internal/engine"
	"netwide/internal/mat"
)

var (
	benchOnce sync.Once
	benchRun  *netwide.Run
)

// benchSetup builds one detected 1-week run shared by all artifact
// benchmarks (simulation and detection have their own benchmarks below).
func benchSetup(b *testing.B) *netwide.Run {
	b.Helper()
	benchOnce.Do(func() {
		run, err := netwide.Simulate(netwide.QuickConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := run.Detect(netwide.DefaultDetectOptions()); err != nil {
			b.Fatal(err)
		}
		run.Characterize()
		benchRun = run
	})
	if benchRun == nil {
		b.Skip("shared setup failed earlier")
	}
	return benchRun
}

// benchSimulateWeek is the full measurement pipeline: traffic synthesis,
// anomaly injection, 1% sampling and OD resolution of the sampled flow
// records for one week of 5-minute bins across all OD pairs of the topology, at the
// given number of simulation goroutines.
func benchSimulateWeek(b *testing.B, topo string, workers int) {
	cfg := netwide.QuickConfig()
	cfg.MeanRateBps = 4e5 // half volume keeps the per-iteration cost sane
	cfg.Workers = workers
	cfg.Topology = topo
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := netwide.Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateWeek sweeps the pipeline across topology sizes at the
// default worker count (all cores): the reference 11-PoP Abilene (121 OD
// pairs), the 23-PoP Géant-like backbone (529), and deterministic synthetic
// backbones of 50 and 100 PoPs (2 500 and 10 000 OD pairs). The sweep is
// the scaling story of the measurement path: per-cell fixed costs dominate
// as the OD matrix widens while total traffic volume stays constant.
func BenchmarkSimulateWeek(b *testing.B) {
	b.Run("abilene", func(b *testing.B) { benchSimulateWeek(b, "abilene", 0) })
	b.Run("geant", func(b *testing.B) { benchSimulateWeek(b, "geant", 0) })
	b.Run("synthetic50", func(b *testing.B) { benchSimulateWeek(b, "synthetic:50:7", 0) })
	b.Run("synthetic100", func(b *testing.B) { benchSimulateWeek(b, "synthetic:100:7", 0) })
}

// BenchmarkSimulateWeekSerial pins the Abilene simulation to a single
// goroutine — the scaling baseline, and the allocs/op reference for the
// scratch-reuse diet in the per-cell path.
func BenchmarkSimulateWeekSerial(b *testing.B) { benchSimulateWeek(b, "abilene", 1) }

// BenchmarkDetectGeant runs the subspace method on a Géant-sized run: at
// 529 OD pairs the analysis crosses onto the partial-PCA path, so this
// benchmark guards the large-p detection fit the synthetic scale sweep
// depends on.
func BenchmarkDetectGeant(b *testing.B) {
	cfg := netwide.QuickConfig()
	cfg.MeanRateBps = 4e5
	cfg.Topology = "geant"
	run, err := netwide.Simulate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run.Detect(netwide.DefaultDetectOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetect measures the subspace method (PCA, thresholds, alarms,
// identification, aggregation) over the three one-week matrices.
func BenchmarkDetect(b *testing.B) {
	run := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run.Detect(netwide.DefaultDetectOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubspaceAnalyze isolates the numeric kernel on the byte matrix
// (experiment E1's inner loop): one fit, then every bin scored against it.
func BenchmarkSubspaceAnalyze(b *testing.B) {
	run := benchSetup(b)
	x := run.Dataset().Matrix(dataset.Bytes)
	rows := make([][]float64, x.Rows())
	for j := range rows {
		rows[j] = x.RowView(j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, err := engine.Fit(x, engine.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := model.ScoreBatch(rows, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1 regenerates the Figure 1 panels (E1).
func BenchmarkFigure1(b *testing.B) {
	run := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run.Figure1(0, 1008); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1CSV includes the serialization cost of the series.
func BenchmarkFigure1CSV(b *testing.B) {
	run := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run.WriteFigure1CSV(io.Discard, 0, 1008); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the traffic-type combination counts (E2).
func BenchmarkTable1(b *testing.B) {
	run := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t1 := run.Table1()
		if len(t1) == 0 {
			b.Fatal("empty table 1")
		}
	}
}

// BenchmarkFigure2 regenerates the duration and OD-count histograms
// (E3, E4).
func BenchmarkFigure2(b *testing.B) {
	run := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dur, ods := run.Figure2()
		if dur.Total() == 0 || ods.Total() == 0 {
			b.Fatal("empty figure 2")
		}
	}
}

// BenchmarkTable2Evidence regenerates the per-type feature signatures (E5).
// The first iteration pays for classification; later ones reuse it, so the
// steady-state cost reported here is the evidence extraction itself.
func BenchmarkTable2Evidence(b *testing.B) {
	run := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(run.Table2Evidence()) == 0 {
			b.Fatal("no table 2 evidence")
		}
	}
}

// BenchmarkTable3 regenerates the class-by-traffic-type table (E6).
func BenchmarkTable3(b *testing.B) {
	run := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t3 := run.Table3()
		if len(t3) == 0 {
			b.Fatal("empty table 3")
		}
	}
}

// BenchmarkClassifyEvents measures fresh classification of every detected
// event, including attribute regeneration for the anomalous cells — the
// dominant cost of characterization.
func BenchmarkClassifyEvents(b *testing.B) {
	run := benchSetup(b)
	var buf writerCounter
	if err := run.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh, err := netwide.LoadRun(buf.reader())
		if err != nil {
			b.Fatal(err)
		}
		if err := fresh.Detect(netwide.DefaultDetectOptions()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if len(fresh.Characterize()) == 0 {
			b.Fatal("no anomalies")
		}
	}
}

// BenchmarkAblationT2 runs the k/T² ablation at a single k (E7).
func BenchmarkAblationT2(b *testing.B) {
	run := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run.Ablation([]int{4}, []float64{0.001}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataReduction reports the E8 statistic.
func BenchmarkDataReduction(b *testing.B) {
	run := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if red := run.Reduction(); red.RawRecords == 0 {
			b.Fatal("no reduction data")
		}
	}
}

// BenchmarkBaselines runs the EWMA and wavelet single-link detectors over
// the routed link loads (E9).
func BenchmarkBaselines(b *testing.B) {
	run := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run.Baselines(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreSerial is the pre-pipeline baseline (E10): the whole week
// scored one vector at a time against the three per-measure models
// (engine.Model.Score) on a single goroutine. Compare with
// BenchmarkStreamDetect; both report one full 3-measure week per op.
func BenchmarkScoreSerial(b *testing.B) {
	run := benchSetup(b)
	dets := make([]*engine.Model, 0, 3)
	for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
		d, err := engine.Fit(run.Dataset().Matrix(m), engine.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		dets = append(dets, d)
	}
	rows := make([][3][]float64, run.Bins())
	for bin := 0; bin < run.Bins(); bin++ {
		for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
			rows[bin][m] = run.Dataset().Matrix(m).RowView(bin)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alarms := 0
		for bin := range rows {
			for m, det := range dets {
				pt, err := det.Score(rows[bin][m])
				if err != nil {
					b.Fatal(err)
				}
				if pt.SPEAlarm || pt.T2Alarm {
					alarms++
				}
			}
		}
		if alarms == 0 {
			b.Fatal("no alarms in replay")
		}
	}
}

// BenchmarkStreamDetect replays the same 3-measure week through the
// concurrent streaming pipeline (E10): per-measure worker lanes, batched
// scoring via two dense products on the cached subspace basis, ordered
// verdict merge. Model training happens outside the timer, matching the
// serial baseline above.
func BenchmarkStreamDetect(b *testing.B) {
	run := benchSetup(b)
	opts := netwide.DefaultDetectOptions()
	cfg := netwide.StreamConfig{TrainBins: run.Bins(), BatchSize: 32}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		det, err := run.NewStreamDetector(opts, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		verdicts, err := det.Replay(0, run.Bins())
		if err != nil {
			b.Fatal(err)
		}
		if len(verdicts) != run.Bins() {
			b.Fatalf("replay returned %d verdicts, want %d", len(verdicts), run.Bins())
		}
	}
}

// BenchmarkStreamDetectRefit adds daily rolling refits to the replay. Each
// lane runs its refits between two of its bins, so the replay waits on
// every fit; the extra time over BenchmarkStreamDetect is the fits
// themselves, the three lanes' running side by side on multi-core
// machines.
func BenchmarkStreamDetectRefit(b *testing.B) {
	run := benchSetup(b)
	opts := netwide.DefaultDetectOptions()
	cfg := netwide.StreamConfig{TrainBins: run.Bins() / 2, BatchSize: 32, RefitEvery: 288, Window: run.Bins() / 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		det, err := run.NewStreamDetector(opts, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := det.Replay(run.Bins()/2, run.Bins()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamCharacterize replays the 3-measure week through the full
// streaming characterization chain (E13): batched scoring, live OD
// attribution of every alarm against the scoring model generation,
// incremental cross-measure event aggregation, and classification at event
// close. The delta over BenchmarkStreamDetect is the price of turning raw
// alarms into classified, ground-truth-matched anomalies at streaming
// time.
func BenchmarkStreamCharacterize(b *testing.B) {
	run := benchSetup(b)
	opts := netwide.DefaultDetectOptions()
	cfg := netwide.StreamConfig{TrainBins: run.Bins(), BatchSize: 32}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		det, err := run.NewStreamDetector(opts, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		verdicts, err := det.Replay(0, run.Bins())
		if err != nil {
			b.Fatal(err)
		}
		anoms := 0
		for _, v := range verdicts {
			anoms += len(v.Anomalies)
		}
		if anoms == 0 {
			b.Fatal("no anomalies characterized")
		}
	}
}

// benchRefit times one model refit at a given scale, warm-started from the
// previous generation's basis or cold from scratch. The window drifts
// slightly between generations — the nightly-refit regime the warm start
// is built for. Widths beyond engine.MaxFullPCAVars exercise the partial
// subspace iteration, where the warm start pays.
func benchRefit(b *testing.B, n, p int, warmStart bool) {
	rng := rand.New(rand.NewPCG(uint64(n), uint64(p)))
	win := mat.New(n, p)
	loads := make([]float64, p)
	for j := range loads {
		loads[j] = 1 + rng.Float64()*3
	}
	for i := 0; i < n; i++ {
		daily := math.Sin(2 * math.Pi * float64(i) / 288)
		row := win.RowView(i)
		for j := range row {
			row[j] = 100 + 40*daily*loads[j] + 2*rng.NormFloat64()
		}
	}
	prev, err := engine.Fit(win, engine.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	next := win.Clone()
	for i := 0; i < n; i++ {
		row := next.RowView(i)
		for j := range row {
			row[j] *= 1 + 0.02*math.Sin(float64(i+j))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if warmStart {
			_, err = prev.Refit(next)
		} else {
			_, err = engine.Fit(next, engine.DefaultOptions())
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefitWarmVsCold compares warm-started and cold refits at the
// partial-PCA scales: the 23-PoP Géant backbone (529 OD pairs) and a
// 50-PoP synthetic backbone (2500 OD pairs). Warm must beat cold here:
// benchRefit's drift is a smooth 2% modulation of a synthetic window, the
// case seeding the subspace iteration from the previous generation was
// built for (6 sweeps against 14). It is the favourable case, not the
// nightly one — on simulated geant traffic a window slid by a day takes
// 15-32 warm sweeps against 16-36 cold (TestGeantFitSweepBudget,
// DESIGN.md E23). At geant the cold fit iterates on the Gram matrix from
// the start and the warm one stays in the data form unless it is still
// unconverged after six sweeps; synthetic50 (p > n) never forms one.
func BenchmarkRefitWarmVsCold(b *testing.B) {
	b.Run("geant/warm", func(b *testing.B) { benchRefit(b, 1008, 529, true) })
	b.Run("geant/cold", func(b *testing.B) { benchRefit(b, 1008, 529, false) })
	b.Run("synthetic50/warm", func(b *testing.B) { benchRefit(b, 672, 2500, true) })
	b.Run("synthetic50/cold", func(b *testing.B) { benchRefit(b, 672, 2500, false) })
}

// benchIncremental builds an incremental updater seeded by a fit on the
// same drifting synthetic window benchRefit uses, at the same scales.
func benchIncremental(b *testing.B, n, p int) (engine.Updater, *mat.Matrix) {
	b.Helper()
	rng := rand.New(rand.NewPCG(uint64(n), uint64(p)))
	win := mat.New(n, p)
	loads := make([]float64, p)
	for j := range loads {
		loads[j] = 1 + rng.Float64()*3
	}
	for i := 0; i < n; i++ {
		daily := math.Sin(2 * math.Pi * float64(i) / 288)
		row := win.RowView(i)
		for j := range row {
			row[j] = 100 + 40*daily*loads[j] + 2*rng.NormFloat64()
		}
	}
	model, err := engine.Fit(win, engine.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	up, err := engine.NewUpdater(engine.UpdaterIncremental, model, engine.UpdaterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return up, win
}

// benchIncrementalUpdate times one per-bin model update — the CCIPCA
// rank-1 subspace fold plus streaming residual moments and threshold
// re-derivation — the entire per-bin price of keeping the scoring model
// one bin stale instead of RefitEvery bins (compare one refit at the same
// scale in BenchmarkRefitWarmVsCold: the refit costs orders of magnitude
// more and only runs every RefitEvery bins, which is exactly the staleness
// the incremental lifecycle removes).
func benchIncrementalUpdate(b *testing.B, n, p int) {
	up, win := benchIncremental(b, n, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := up.Observe(win.RowView(i % win.Rows())); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(up.Freshness().Staleness), "staleness-bins")
}

// BenchmarkIncrementalUpdate measures the per-bin update at the partial-PCA
// scales: the 23-PoP Géant backbone (529 OD pairs) and the 100-PoP
// synthetic backbone (10 000 OD pairs).
func BenchmarkIncrementalUpdate(b *testing.B) {
	b.Run("geant", func(b *testing.B) { benchIncrementalUpdate(b, 1008, 529) })
	b.Run("synthetic100", func(b *testing.B) { benchIncrementalUpdate(b, 512, 10000) })
}

// benchRichTraffic builds stationary traffic with spectrally separated
// factors — iid Gaussian scores with geometrically decaying scale on
// orthonormal random loadings — so a k=4 subspace is fully identified and
// tracked-vs-refit angles measure the tracker, not arbitrary noise
// directions (the sinusoidal benchRefit data has only ~2 structured
// factors, which would make any k=4 comparison meaningless).
func benchRichTraffic(rng *rand.Rand, n, p, r int) *mat.Matrix {
	loads := make([][]float64, r)
	for f := range loads {
		v := make([]float64, p)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		for _, prev := range loads[:f] {
			var dot float64
			for j := range v {
				dot += v[j] * prev[j]
			}
			for j := range v {
				v[j] -= dot / float64(p) * prev[j]
			}
		}
		var nv float64
		for _, c := range v {
			nv += c * c
		}
		scale := math.Sqrt(float64(p) / nv)
		for j := range v {
			v[j] *= scale
		}
		loads[f] = v
	}
	m := mat.New(n, p)
	for i := 0; i < n; i++ {
		row := m.RowView(i)
		for j := range row {
			row[j] = 100 + 2*rng.NormFloat64()
		}
		for f := 0; f < r; f++ {
			s := 60 * math.Pow(0.5, float64(f)) * rng.NormFloat64()
			for j := range row {
				row[j] += s * loads[f][j]
			}
		}
	}
	return m
}

// BenchmarkIncrementalVsExactQuality is the sketch-vs-exact quality gate in
// benchmark form: it drives the same stationary factor traffic through the
// tracker and through an exact refit, and reports how far the tracked
// subspace sits from the exactly refitted one (largest principal angle,
// radians) plus the alarm agreement between the two models over the window.
// The angle going above the documented 0.35 rad divergence bound (DESIGN.md
// E19) or the agreement collapsing flags a tracker quality regression the
// time-based benchmarks cannot see.
func BenchmarkIncrementalVsExactQuality(b *testing.B) {
	const n, p = 600, 121
	b.ReportAllocs()
	var angle, agree float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewPCG(uint64(i), 121))
		all := benchRichTraffic(rng, 2*n, p, 6)
		seed, err := engine.Fit(all.HeadRows(n), engine.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		up, err := engine.NewUpdater(engine.UpdaterIncremental, seed, engine.UpdaterConfig{Window: n})
		if err != nil {
			b.Fatal(err)
		}
		win := mat.New(n, p)
		for r := 0; r < n; r++ {
			copy(win.RowView(r), all.RowView(n+r))
			if _, err := up.Observe(all.RowView(n + r)); err != nil {
				b.Fatal(err)
			}
		}
		exact, err := up.Model().Refit(win)
		if err != nil {
			b.Fatal(err)
		}
		tracked := up.Model()
		angle, err = engine.SubspaceAngle(tracked, exact)
		if err != nil {
			b.Fatal(err)
		}
		same := 0
		for r := 0; r < n; r++ {
			tp, err1 := tracked.Score(win.RowView(r))
			ep, err2 := exact.Score(win.RowView(r))
			if err1 != nil || err2 != nil {
				b.Fatal(err1, err2)
			}
			if (tp.SPEAlarm || tp.T2Alarm) == (ep.SPEAlarm || ep.T2Alarm) {
				same++
			}
		}
		agree = float64(same) / float64(n)
	}
	b.ReportMetric(angle, "subspace-rad")
	b.ReportMetric(agree, "alarm-agreement")
}

// benchMatPair builds the product shape of the streaming hot path: a week
// of centered traffic against the full principal-axis basis.
func benchMatPair() (*mat.Matrix, *mat.Matrix) {
	rng := rand.New(rand.NewPCG(71, 72))
	a := mat.New(2016, 121)
	bm := mat.New(121, 121)
	for i := 0; i < a.Rows(); i++ {
		row := a.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	for i := 0; i < bm.Rows(); i++ {
		row := bm.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	return a, bm
}

// BenchmarkMatMulSerial pins the dense product to one worker.
func BenchmarkMatMulSerial(b *testing.B) {
	a, bm := benchMatPair()
	prev := mat.SetWorkers(1)
	defer mat.SetWorkers(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := mat.Mul(a, bm); out.Rows() != 2016 {
			b.Fatal("bad product")
		}
	}
}

// BenchmarkMatMulParallel runs the same product on the full worker pool
// (GOMAXPROCS goroutines over disjoint row blocks).
func BenchmarkMatMulParallel(b *testing.B) {
	a, bm := benchMatPair()
	prev := mat.SetWorkers(0) // reset to GOMAXPROCS
	defer mat.SetWorkers(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := mat.Mul(a, bm); out.Rows() != 2016 {
			b.Fatal("bad product")
		}
	}
}

// BenchmarkCovarianceParallel times the covariance accumulation behind
// every PCA fit and refit, on the full worker pool.
func BenchmarkCovarianceParallel(b *testing.B) {
	a, _ := benchMatPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := a.Covariance(); c.Rows() != 121 {
			b.Fatal("bad covariance")
		}
	}
}

// writerCounter buffers the serialized dataset for repeated reloads.
type writerCounter struct{ data []byte }

func (w *writerCounter) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

func (w *writerCounter) reader() io.Reader { return &sliceReader{data: w.data} }

type sliceReader struct {
	data []byte
	off  int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}
