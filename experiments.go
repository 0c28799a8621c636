package netwide

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"netwide/internal/baseline"
	"netwide/internal/classify"
	"netwide/internal/dataset"
	"netwide/internal/engine"
	"netwide/internal/events"
	"netwide/internal/routing"
	"netwide/internal/stats"
	"netwide/internal/traffic"
)

// This file regenerates every table and figure of the paper's evaluation
// (see DESIGN.md's per-experiment index). Each function returns plain data
// plus a renderer, so both cmd/paper and the benchmark harness reuse them.

// Figure1Series is one measure's three panels of Figure 1: timeseries of
// the state vector squared magnitude, the residual squared magnitude with
// its Q threshold, and the T² statistic with its threshold.
type Figure1Series struct {
	Measure string
	State   []float64
	SPE     []float64
	QLimit  float64
	T2      []float64
	T2Limit float64
}

// Figure1 extracts the three panels for each traffic type over a window of
// bins (the paper plots 3.5 days ~ 1008 bins). Detect must have run.
func (r *Run) Figure1(startBin, bins int) ([dataset.NumMeasures]Figure1Series, error) {
	var out [dataset.NumMeasures]Figure1Series
	if r.results[0] == nil {
		return out, fmt.Errorf("netwide: Figure1 requires Detect")
	}
	end := startBin + bins
	if startBin < 0 || end > r.Bins() {
		return out, fmt.Errorf("netwide: window [%d,%d) out of range", startBin, end)
	}
	for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
		res := r.results[m]
		s := Figure1Series{
			Measure: m.String(),
			State:   res.state[startBin:end],
			SPE:     make([]float64, bins),
			QLimit:  res.qLimit,
			T2:      make([]float64, bins),
			T2Limit: res.t2Limit,
		}
		for i, pt := range res.points[startBin:end] {
			s.SPE[i], s.T2[i] = pt.SPE, pt.T2
		}
		out[m] = s
	}
	return out, nil
}

// WriteFigure1CSV writes the Figure 1 series as CSV (bin, then per measure
// state/spe/t2 columns).
func (r *Run) WriteFigure1CSV(w io.Writer, startBin, bins int) error {
	series, err := r.Figure1(startBin, bins)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "bin,state_B,spe_B,t2_B,state_P,spe_P,t2_P,state_F,spe_F,t2_F"); err != nil {
		return err
	}
	for i := 0; i < bins; i++ {
		b, p, f := series[dataset.Bytes], series[dataset.Packets], series[dataset.Flows]
		if _, err := fmt.Fprintf(w, "%d,%g,%g,%g,%g,%g,%g,%g,%g,%g\n",
			startBin+i, b.State[i], b.SPE[i], b.T2[i],
			p.State[i], p.SPE[i], p.T2[i],
			f.State[i], f.SPE[i], f.T2[i]); err != nil {
			return err
		}
	}
	for _, s := range series {
		if _, err := fmt.Fprintf(w, "# %s: Qlimit=%g T2limit=%g\n", s.Measure, s.QLimit, s.T2Limit); err != nil {
			return err
		}
	}
	return nil
}

// Table1 counts aggregated anomalies per traffic-type combination — the
// paper's Table 1 (B, F, P, BF, BP, FP, BFP).
func (r *Run) Table1() map[string]int {
	counts := events.CountBySet(r.evs)
	out := map[string]int{}
	for _, set := range events.AllSets() {
		out[set.String()] = counts[set]
	}
	return out
}

// RenderTable1 formats Table 1 in the paper's column order.
func RenderTable1(t1 map[string]int) string {
	cols := []string{"B", "F", "P", "BF", "BP", "FP", "BFP"}
	var b strings.Builder
	b.WriteString("Traffic   ")
	for _, c := range cols {
		fmt.Fprintf(&b, "%6s", c)
	}
	b.WriteString("\n# Found:  ")
	for _, c := range cols {
		fmt.Fprintf(&b, "%6d", t1[c])
	}
	b.WriteString("\n")
	return b.String()
}

// Figure2 builds the two histograms of Figure 2: anomaly duration in
// minutes and number of OD flows per anomaly.
func (r *Run) Figure2() (duration, odCount *stats.Histogram) {
	duration = stats.NewHistogram(0, 130, 26) // 5-minute buckets to >2h
	odCount = stats.NewHistogram(0.5, 8.5, 8) // 1..8+ OD flows
	for _, ev := range r.evs {
		duration.Add(float64(ev.DurationBins() * 5))
		odCount.Add(float64(len(ev.ODs)))
	}
	return duration, odCount
}

// RenderHistogram draws an ASCII histogram.
func RenderHistogram(h *stats.Histogram, label string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d)\n", label, h.Total())
	max := 0
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		bar := ""
		if max > 0 {
			bar = strings.Repeat("#", 1+c*40/max)
		}
		fmt.Fprintf(&b, "%8.1f | %-41s %d\n", h.BinCenter(i), bar, c)
	}
	return b.String()
}

// Table3Row is one row of Table 3: counts of each anomaly class for one
// traffic-type combination.
type Table3Row map[string]int

// Table3 tallies classified anomalies per (measure set, class) — the
// paper's Table 3 — plus the Total row.
func (r *Run) Table3() map[string]Table3Row {
	out := map[string]Table3Row{}
	add := func(set, class string) {
		row := out[set]
		if row == nil {
			row = Table3Row{}
			out[set] = row
		}
		row[class]++
	}
	for _, v := range r.Verdicts() {
		set := v.Event.Measures.String()
		add(set, collapseClass(v.Class))
		add("Total", collapseClass(v.Class))
	}
	return out
}

// collapseClass folds DDOS into the paper's combined "DOS" column and maps
// labels to Table 3 headers.
func collapseClass(c classify.Class) string {
	switch c {
	case classify.ClassDOS, classify.ClassDDOS:
		return "DOS"
	case classify.ClassUnknown:
		return "Unknown"
	case classify.ClassFalseAlarm:
		return "False Alarm"
	default:
		return c.String()
	}
}

// Table3Columns is the paper's column order.
var Table3Columns = []string{"ALPHA", "DOS", "SCAN", "FLASH", "PT-MULT", "WORM", "OUTAGE", "INGR-SHIFT", "Unknown", "False Alarm"}

// RenderTable3 formats Table 3.
func RenderTable3(t3 map[string]Table3Row) string {
	rows := []string{"B", "F", "P", "BF", "BP", "FP", "BFP", "Total"}
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "Type")
	for _, c := range Table3Columns {
		fmt.Fprintf(&b, "%12s", c)
	}
	b.WriteString("\n")
	for _, rname := range rows {
		row := t3[rname]
		if row == nil && rname != "Total" {
			continue
		}
		fmt.Fprintf(&b, "%-6s", rname)
		for _, c := range Table3Columns {
			fmt.Fprintf(&b, "%12d", row[c])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table2Evidence checks, for every injected anomaly type present in the
// run, which feature signature the classifier observed — the qualitative
// content of Table 2. It returns one line per type.
func (r *Run) Table2Evidence() []string {
	byType := map[string]classify.Verdict{}
	for _, v := range r.Verdicts() {
		specs := r.ds.Ledger.Specs()
		if s, ok := r.matchTruth(v.Event, specs); ok {
			key := s.Type.String()
			if _, seen := byType[key]; !seen {
				byType[key] = v
			}
		}
	}
	keys := make([]string, 0, len(byType))
	for k := range byType {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		v := byType[k]
		out = append(out, fmt.Sprintf("%-11s observed as [%s] x%d ODs, %dmin: classified %s (%s)",
			k, v.Event.Measures, len(v.Event.ODs), v.Event.DurationBins()*5, v.Class, v.Why))
	}
	return out
}

// DetectionScore compares detected events against the injected ground
// truth: recall (fraction of injected anomalies matched by some event) and
// the unmatched-event rate.
type DetectionScore struct {
	InjectedTotal  int
	InjectedFound  int
	Events         int
	EventsMatched  int
	FalseAlarmRate float64 // fraction of events classified FALSE-ALARM
	UnknownRate    float64
}

// Score computes detection quality against the ledger.
func (r *Run) Score() DetectionScore {
	specs := r.ds.Ledger.Specs()
	s := DetectionScore{InjectedTotal: len(specs), Events: len(r.evs)}
	matched := map[int]bool{}
	for _, ev := range r.evs {
		if spec, ok := r.matchTruth(ev, specs); ok {
			s.EventsMatched++
			matched[spec.ID] = true
		}
	}
	s.InjectedFound = len(matched)
	var fa, unk int
	for _, v := range r.Verdicts() {
		switch v.Class {
		case classify.ClassFalseAlarm:
			fa++
		case classify.ClassUnknown:
			unk++
		}
	}
	if len(r.verdicts) > 0 {
		s.FalseAlarmRate = float64(fa) / float64(len(r.verdicts))
		s.UnknownRate = float64(unk) / float64(len(r.verdicts))
	}
	return s
}

// AblationPoint is one setting of the k/alpha/T² ablation (experiment E7
// plus the design ablations in DESIGN.md).
type AblationPoint struct {
	K            int
	Alpha        float64
	UseT2        bool
	Events       int
	TruthRecall  float64
	SPEAlarmBins int
	T2AlarmBins  int
}

// Ablation re-runs detection across parameter settings, reporting how many
// ground-truth anomalies each recovers. Setting useT2=false drops the T²
// statistic, quantifying the paper's claim that the Q-statistic alone
// misses anomalies absorbed into the normal subspace.
func (r *Run) Ablation(ks []int, alphas []float64) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, k := range ks {
		for _, alpha := range alphas {
			for _, useT2 := range []bool{true, false} {
				pt, err := r.ablate(k, alpha, useT2)
				if err != nil {
					return nil, err
				}
				out = append(out, pt)
			}
		}
	}
	return out, nil
}

func (r *Run) ablate(k int, alpha float64, useT2 bool) (AblationPoint, error) {
	sub := &Run{ds: r.ds}
	if err := sub.Detect(DetectOptions{K: k, Alpha: alpha}); err != nil {
		return AblationPoint{}, err
	}
	pt := AblationPoint{K: k, Alpha: alpha, UseT2: useT2}
	for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
		for _, p := range sub.results[m].points {
			if p.SPEAlarm {
				pt.SPEAlarmBins++
			}
			if p.T2Alarm {
				pt.T2AlarmBins++
			}
		}
	}
	evs := sub.evs
	if !useT2 {
		// Rebuild events from SPE-only detections.
		var dets []events.Detection
		for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
			for _, att := range sub.results[m].attribs {
				if att.Alarm.Stat == engine.StatSPE {
					dets = append(dets, events.Detection{Measure: m, Bin: att.Alarm.Bin, ODs: att.ODs, Residuals: att.Residuals})
				}
			}
		}
		evs = events.Aggregate(dets)
	}
	pt.Events = len(evs)
	specs := r.ds.Ledger.Specs()
	matched := map[int]bool{}
	for _, ev := range evs {
		if spec, ok := r.matchTruth(ev, specs); ok {
			matched[spec.ID] = true
		}
	}
	if len(specs) > 0 {
		pt.TruthRecall = float64(len(matched)) / float64(len(specs))
	}
	return pt, nil
}

// DataReduction quantifies experiment E8: raw collected flow records vs OD
// matrix cells (the paper's motivation for OD aggregation as data
// reduction).
type DataReduction struct {
	RawRecords     uint64
	Unresolved     uint64
	MatrixCells    int
	ReductionRatio float64
}

// Reduction reports the data-reduction achieved by OD aggregation.
func (r *Run) Reduction() DataReduction {
	cells := r.Bins() * r.ds.NumODPairs() * int(dataset.NumMeasures)
	red := DataReduction{
		RawRecords:  r.ds.RawRecords,
		Unresolved:  r.ds.UnresolvedRecords,
		MatrixCells: cells,
	}
	if cells > 0 {
		red.ReductionRatio = float64(red.RawRecords) / float64(cells)
	}
	return red
}

// BaselineScore compares the single-timeseries detectors against the
// subspace method on the same run (experiment E9).
type BaselineScore struct {
	Name        string
	AlarmBins   int
	TruthRecall float64
}

// Baselines runs the EWMA and wavelet detectors per link (after routing
// the OD byte matrix onto the backbone) and per OD flow, scoring
// ground-truth recall for each.
func (r *Run) Baselines() ([]BaselineScore, error) {
	spf, err := routing.ComputeSPF(r.ds.Top)
	if err != nil {
		return nil, err
	}
	x := r.ds.Matrix(dataset.Bytes)
	nLinks := spf.NumDirectedLinks()
	linkSeries := make([][]float64, nLinks)
	for l := range linkSeries {
		linkSeries[l] = make([]float64, r.Bins())
	}
	for bin := 0; bin < r.Bins(); bin++ {
		loads, err := spf.LinkLoads(x.RowView(bin))
		if err != nil {
			return nil, err
		}
		for l, v := range loads {
			linkSeries[l][bin] = v
		}
	}
	specs := r.ds.Ledger.Specs()

	scoreAlarms := func(name string, alarmBins map[int]bool) BaselineScore {
		matched := map[int]bool{}
		for _, s := range specs {
			for b := s.StartBin; b <= s.EndBin; b++ {
				if alarmBins[b] {
					matched[s.ID] = true
					break
				}
			}
		}
		recall := 0.0
		if len(specs) > 0 {
			recall = float64(len(matched)) / float64(len(specs))
		}
		return BaselineScore{Name: name, AlarmBins: len(alarmBins), TruthRecall: recall}
	}

	var out []BaselineScore
	// EWMA per link.
	ew := baseline.EWMADetector{Alpha: 0.3, Threshold: 6}
	bins := map[int]bool{}
	for _, s := range linkSeries {
		al, err := ew.Detect(s)
		if err != nil {
			return nil, err
		}
		for _, b := range al {
			bins[b] = true
		}
	}
	out = append(out, scoreAlarms("ewma-per-link(B)", bins))
	// Wavelet per link.
	wv := baseline.WaveletDetector{Levels: 3, Threshold: 25}
	bins = map[int]bool{}
	for _, s := range linkSeries {
		al, err := wv.Detect(s)
		if err != nil {
			return nil, err
		}
		for _, b := range al {
			bins[b] = true
		}
	}
	out = append(out, scoreAlarms("wavelet-per-link(B)", bins))
	// Subspace (all three measures), for reference on the same footing.
	bins = map[int]bool{}
	for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
		if r.results[m] == nil {
			continue
		}
		for b, pt := range r.results[m].points {
			if pt.SPEAlarm || pt.T2Alarm {
				bins[b] = true
			}
		}
	}
	out = append(out, scoreAlarms("subspace(B,P,F)", bins))
	return out, nil
}

// BinsPerDay re-exports the binning constant for presentation code.
const BinsPerDay = traffic.BinsPerDay
