package netwide_test

import (
	"bytes"
	"strings"
	"testing"

	"netwide"
	"netwide/internal/anomaly"
	"netwide/internal/dataset"
	"netwide/internal/topology"
	"netwide/internal/traffic"
)

// sharedRun caches one detected QuickConfig run for the read-only tests.
var sharedRun *netwide.Run

func quickRun(t testing.TB) *netwide.Run {
	t.Helper()
	if sharedRun != nil {
		return sharedRun
	}
	run, err := netwide.Simulate(netwide.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Detect(netwide.DefaultDetectOptions()); err != nil {
		t.Fatal(err)
	}
	sharedRun = run
	return run
}

func TestPipelineEndToEnd(t *testing.T) {
	run := quickRun(t)
	if run.Bins() != traffic.BinsPerWeek {
		t.Fatalf("bins=%d", run.Bins())
	}
	evs := run.Events()
	if len(evs) == 0 {
		t.Fatal("no events detected")
	}
	anoms := run.Characterize()
	if len(anoms) != len(evs) {
		t.Fatalf("anomalies %d != events %d", len(anoms), len(evs))
	}
	score := run.Score()
	if score.InjectedTotal == 0 {
		t.Fatal("no ground truth")
	}
	recall := float64(score.InjectedFound) / float64(score.InjectedTotal)
	if recall < 0.5 {
		t.Fatalf("ground-truth recall %.2f too low (found %d/%d)", recall, score.InjectedFound, score.InjectedTotal)
	}
	// The paper reports ~8%% false alarms and ~10%% unknown; allow a wide
	// band but catch a broken classifier.
	if score.FalseAlarmRate > 0.4 {
		t.Fatalf("false alarm rate %.2f", score.FalseAlarmRate)
	}
	if score.UnknownRate > 0.45 {
		t.Fatalf("unknown rate %.2f", score.UnknownRate)
	}
}

func TestTable1ShapeMatchesPaper(t *testing.T) {
	run := quickRun(t)
	t1 := run.Table1()
	total := 0
	for _, c := range t1 {
		total += c
	}
	if total != len(run.Events()) {
		t.Fatalf("table1 total %d != events %d", total, len(run.Events()))
	}
	// Paper's Table 1 structure: F > P > B among single types; BF == 0
	// (byte+flow anomalies without packet corroboration are physically
	// implausible).
	if t1["BF"] > t1["BP"] || t1["BF"] > t1["FP"] {
		t.Fatalf("BF=%d should be the rarest composite (BP=%d FP=%d)", t1["BF"], t1["BP"], t1["FP"])
	}
	if t1["F"] == 0 || t1["B"] == 0 {
		t.Fatalf("B and F must both detect something: %v", t1)
	}
	// Packets must contribute, alone or in composites (on a short quick
	// run, P-only events can be absent while BP/FP carry the P signal).
	if t1["P"]+t1["BP"]+t1["FP"]+t1["BFP"] == 0 {
		t.Fatalf("packet view detected nothing: %v", t1)
	}
}

func TestFigure1SeriesWellFormed(t *testing.T) {
	run := quickRun(t)
	series, err := run.Figure1(0, 1008) // the paper's 3.5-day window
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if len(s.State) != 1008 || len(s.SPE) != 1008 || len(s.T2) != 1008 {
			t.Fatalf("series %s lengths wrong", s.Measure)
		}
		if s.QLimit <= 0 || s.T2Limit <= 0 {
			t.Fatalf("series %s limits %v %v", s.Measure, s.QLimit, s.T2Limit)
		}
		for i, v := range s.State {
			if v < 0 {
				t.Fatalf("negative state at %d", i)
			}
		}
	}
	// CSV writer produces one line per bin plus header and limit comments.
	var buf bytes.Buffer
	if err := run.WriteFigure1CSV(&buf, 0, 100); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+100+3 {
		t.Fatalf("CSV lines %d", len(lines))
	}
	if _, err := run.Figure1(-1, 10); err == nil {
		t.Fatal("negative window accepted")
	}
	if _, err := run.Figure1(0, 1<<20); err == nil {
		t.Fatal("oversized window accepted")
	}
}

func TestFigure2HistogramsShape(t *testing.T) {
	run := quickRun(t)
	dur, ods := run.Figure2()
	if dur.Total() != len(run.Events()) || ods.Total() != len(run.Events()) {
		t.Fatal("histogram totals wrong")
	}
	// Paper's Figure 2: mass concentrates at short durations and few OD
	// flows.
	if dur.Mode() > 2 {
		t.Fatalf("duration mode at bin %d, want near 0 (short anomalies dominate)", dur.Mode())
	}
	if ods.Mode() > 1 {
		t.Fatalf("OD-count mode at bin %d, want 0 or 1", ods.Mode())
	}
}

func TestSaveLoadRun(t *testing.T) {
	run := quickRun(t)
	var buf bytes.Buffer
	if err := run.Save(&buf); err != nil {
		t.Fatal(err)
	}
	run2, err := netwide.LoadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := run2.Detect(netwide.DefaultDetectOptions()); err != nil {
		t.Fatal(err)
	}
	if len(run2.Events()) != len(run.Events()) {
		t.Fatalf("events after reload %d != %d", len(run2.Events()), len(run.Events()))
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	run := quickRun(t)
	if s := netwide.RenderTable1(run.Table1()); !strings.Contains(s, "BFP") {
		t.Fatalf("table1 render: %q", s)
	}
	if s := netwide.RenderTable3(run.Table3()); !strings.Contains(s, "Total") {
		t.Fatalf("table3 render: %q", s)
	}
	dur, _ := run.Figure2()
	if s := netwide.RenderHistogram(dur, "duration"); !strings.Contains(s, "duration") {
		t.Fatalf("histogram render: %q", s)
	}
	if len(run.Table2Evidence()) == 0 {
		t.Fatal("no table 2 evidence")
	}
}

func TestReductionReported(t *testing.T) {
	run := quickRun(t)
	red := run.Reduction()
	if red.RawRecords == 0 || red.MatrixCells == 0 {
		t.Fatalf("reduction empty: %+v", red)
	}
	if red.ReductionRatio < 1 {
		t.Fatalf("OD aggregation should reduce data: ratio %v", red.ReductionRatio)
	}
}

func TestReductionUnchangedByCharacterize(t *testing.T) {
	// Regression: characterization regenerates the anomalous bins to compute
	// attribute detail, which used to re-count those records into the
	// data-reduction statistic. The counters are frozen at Simulate time.
	run := quickRun(t)
	before := run.Reduction()
	if len(run.Characterize()) == 0 {
		t.Fatal("no anomalies to characterize")
	}
	after := run.Reduction()
	if before != after {
		t.Fatalf("Characterize changed Reduction():\nbefore %+v\nafter  %+v", before, after)
	}
}

func TestSimulateWorkersIdenticalRuns(t *testing.T) {
	// The public Workers knob must not alter results: serial and parallel
	// runs produce identical matrices and data-reduction statistics.
	cfg := netwide.QuickConfig()
	cfg.MeanRateBps = 2e5
	cfg.Workers = 1
	r1, err := netwide.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	r4, err := netwide.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
		x1, x4 := r1.Dataset().Matrix(m), r4.Dataset().Matrix(m)
		for bin := 0; bin < r1.Bins(); bin++ {
			row1, row4 := x1.RowView(bin), x4.RowView(bin)
			for od := range row1 {
				if row1[od] != row4[od] {
					t.Fatalf("measure %v differs at (%d,%d)", m, bin, od)
				}
			}
		}
	}
	if r1.Reduction() != r4.Reduction() {
		t.Fatalf("reduction stats differ: %+v vs %+v", r1.Reduction(), r4.Reduction())
	}
}

func TestGroundTruthAccessible(t *testing.T) {
	run := quickRun(t)
	gt := run.GroundTruth()
	if len(gt) == 0 {
		t.Fatal("no ground truth")
	}
	for _, g := range gt {
		if g.Type == "" || len(g.ODs) == 0 || g.EndBin < g.StartBin {
			t.Fatalf("bad truth %+v", g)
		}
	}
}

func TestFormatBin(t *testing.T) {
	if got := netwide.FormatBin(0); got != "day 1 00:00" {
		t.Fatalf("FormatBin(0)=%q", got)
	}
	if got := netwide.FormatBin(traffic.BinsPerDay + 13); got != "day 2 01:05" {
		t.Fatalf("FormatBin=%q", got)
	}
}

// scheduledRun builds a 1-week abilene run whose anomalies come from the
// schedule set configures, round-trips it through the dataset file format
// and runs Detect on it.
func scheduledRun(seed uint64, set func(*anomaly.ScheduleConfig)) (*netwide.Run, error) {
	cfg := dataset.Config{
		Weeks:              1,
		Seed:               seed,
		MeanRateBps:        8e5,
		SamplingRate:       0.01,
		UnresolvedFraction: 0.07,
		Schedule: anomaly.ScheduleConfig{
			Weeks:    1,
			RefBytes: 8e5 * traffic.BinSeconds / topology.NumODPairs,
			Seed:     seed,
		},
	}
	set(&cfg.Schedule)
	ds, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		return nil, err
	}
	run, err := netwide.LoadRun(&buf)
	if err != nil {
		return nil, err
	}
	return run, run.Detect(netwide.DefaultDetectOptions())
}

// singleInjection builds a 1-week run containing exactly one anomaly of the
// given type and returns the classified verdict of the event matching it.
func singleInjection(t *testing.T, set func(*anomaly.ScheduleConfig), seed uint64) (string, string, bool) {
	t.Helper()
	run, err := scheduledRun(seed, set)
	if err != nil {
		t.Fatal(err)
	}
	truthType := run.Dataset().Ledger.Specs()[0].Type.String()
	// Several events can match one injected anomaly (different measure
	// sets, fragments split in time); report all their classes.
	var classes []string
	for _, a := range run.Characterize() {
		if a.TruthType == truthType {
			classes = append(classes, a.Class)
		}
	}
	return strings.Join(classes, ","), truthType, len(classes) > 0
}

// TestTable2Classification verifies every row of Table 2: each injected
// anomaly type is detected and classified with the features the paper
// describes. DDOS collapses into the DOS column as in Table 3; the
// flash-vs-DOS distinction follows the Jung heuristic, which the paper
// itself calls imperfect, so FLASH accepts DOS as a near-miss only if the
// dominant port is well-known — here we require the exact label.
func TestTable2Classification(t *testing.T) {
	cases := []struct {
		name string
		set  func(*anomaly.ScheduleConfig)
		want []string // acceptable labels, primary first
		seed uint64
	}{
		{"alpha", func(s *anomaly.ScheduleConfig) { s.Alphas = 4 }, []string{"ALPHA"}, 21},
		{"dos", func(s *anomaly.ScheduleConfig) { s.DOSes = 4 }, []string{"DOS"}, 22},
		{"ddos", func(s *anomaly.ScheduleConfig) { s.DDOSes = 4 }, []string{"DDOS", "DOS"}, 23},
		{"flash", func(s *anomaly.ScheduleConfig) { s.Flashes = 4 }, []string{"FLASH"}, 24},
		{"scan", func(s *anomaly.ScheduleConfig) { s.Scans = 4 }, []string{"SCAN"}, 25},
		{"worm", func(s *anomaly.ScheduleConfig) { s.Worms = 4 }, []string{"WORM"}, 26},
		{"ptmult", func(s *anomaly.ScheduleConfig) { s.PtMults = 4 }, []string{"PT-MULT"}, 27},
		{"outage", func(s *anomaly.ScheduleConfig) { s.Outages = 1 }, []string{"OUTAGE"}, 28},
		{"ingress", func(s *anomaly.ScheduleConfig) { s.IngressShifts = 1 }, []string{"INGR-SHIFT"}, 29},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got, truthType, found := singleInjection(t, tc.set, tc.seed)
			if !found {
				t.Fatalf("injected %s not detected at all", truthType)
			}
			for _, w := range tc.want {
				for _, g := range strings.Split(got, ",") {
					if g == w {
						return
					}
				}
			}
			t.Fatalf("injected %s classified as %s, want one of %v", truthType, got, tc.want)
		})
	}
}
