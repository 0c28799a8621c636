package dataset

import (
	"bytes"
	"math"
	"testing"

	"netwide/internal/anomaly"
	"netwide/internal/flowwire"
	"netwide/internal/topology"
	"netwide/internal/traffic"
)

// quickConfig is a small-but-real configuration used across tests: 1 week,
// modest volume so generation stays fast.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Weeks = 1
	cfg.MeanRateBps = 8e5
	cfg.Seed = 7
	return cfg
}

// tinyConfig shrinks the run to two days' worth of bins by lowering volume;
// used where only structure matters. (Weeks stay 1: the bin count is fixed
// by week granularity, so "tiny" here means low record volume.)
func tinyConfig() Config {
	cfg := quickConfig()
	cfg.MeanRateBps = 2e5
	return cfg
}

var cachedQuick *Dataset

func quickDataset(t testing.TB) *Dataset {
	t.Helper()
	if cachedQuick != nil {
		return cachedQuick
	}
	d, err := Generate(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	cachedQuick = d
	return d
}

func TestMeasureString(t *testing.T) {
	if Bytes.String() != "B" || Packets.String() != "P" || Flows.String() != "F" {
		t.Fatal("measure names wrong")
	}
	if Measure(9).String() != "Measure(9)" {
		t.Fatal("out-of-range measure name")
	}
	if SrcAddr.String() != "srcAddr" || DstPort.String() != "dstPort" {
		t.Fatal("dim names wrong")
	}
}

func TestGenerateShapes(t *testing.T) {
	d := quickDataset(t)
	if d.Bins != traffic.BinsPerWeek {
		t.Fatalf("bins=%d", d.Bins)
	}
	for m := Measure(0); m < NumMeasures; m++ {
		x := d.Matrix(m)
		if x.Rows() != d.Bins || x.Cols() != topology.NumODPairs {
			t.Fatalf("measure %v shape %dx%d", m, x.Rows(), x.Cols())
		}
	}
	if d.RawRecords == 0 {
		t.Fatal("no records generated")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	cfg := quickConfig()
	cfg.Weeks = 0
	if _, err := Generate(cfg); err == nil {
		t.Fatal("weeks=0 accepted")
	}
	cfg = quickConfig()
	cfg.SamplingRate = 0
	if _, err := Generate(cfg); err == nil {
		t.Fatal("rate=0 accepted")
	}
	cfg = quickConfig()
	cfg.MeanRateBps = -1
	if _, err := Generate(cfg); err == nil {
		t.Fatal("negative volume accepted")
	}
}

func TestMatricesInternallyConsistent(t *testing.T) {
	d := quickDataset(t)
	b, p, f := d.Matrix(Bytes), d.Matrix(Packets), d.Matrix(Flows)
	for bin := 0; bin < d.Bins; bin += 97 {
		for od := 0; od < topology.NumODPairs; od++ {
			bb, pp, ff := b.At(bin, od), p.At(bin, od), f.At(bin, od)
			if (ff == 0) != (pp == 0) {
				t.Fatalf("flows/packets inconsistent at (%d,%d): %v/%v", bin, od, ff, pp)
			}
			if pp < ff {
				t.Fatalf("packets %v < flows %v at (%d,%d)", pp, ff, bin, od)
			}
			if bb < pp*20 && pp > 0 {
				t.Fatalf("bytes %v below 20/pkt floor (pkts %v) at (%d,%d)", bb, pp, bin, od)
			}
		}
	}
}

func TestDiurnalStructurePresent(t *testing.T) {
	d := quickDataset(t)
	// Average network-wide packets at peak hour vs 4am across the week's
	// weekdays; peak must be materially higher.
	p := d.Matrix(Packets)
	rowSum := func(bin int) float64 {
		var s float64
		for od := 0; od < topology.NumODPairs; od++ {
			s += p.At(bin, od)
		}
		return s
	}
	var peak, night float64
	peakBin := int(d.BG.Profile.PeakHour * traffic.BinsPerHour)
	for day := 0; day < 5; day++ {
		peak += rowSum(day*traffic.BinsPerDay + peakBin)
		night += rowSum(day*traffic.BinsPerDay + 4*traffic.BinsPerHour)
	}
	if peak < night*1.3 {
		t.Fatalf("diurnal cycle washed out: peak %v night %v", peak, night)
	}
}

func TestUnresolvedFractionApplied(t *testing.T) {
	d := quickDataset(t)
	frac := float64(d.UnresolvedRecords) / float64(d.RawRecords)
	if frac < 0.05 || frac > 0.10 {
		t.Fatalf("unresolved fraction %v, want ~0.07", frac)
	}
}

func TestRegenerationIsExact(t *testing.T) {
	d := quickDataset(t)
	// Replaying a cell must reproduce exactly the counts accumulated in the
	// matrices (for cells whose records all resolved to the generating OD;
	// pick an anomaly-free cell of a self-pair to avoid cross-OD spoofing).
	od := topology.ODPair{Origin: topology.CHIN, Dest: topology.CHIN}
	bin := 777
	var bytesSum, pktsSum, flowsSum float64
	// Every record generated at (od,bin) lands in some OD; sum only those
	// resolved back to od (others were rerouted by resolution).
	d.ForEachResolvedRecord(od, bin, func(res topology.ODPair, rec flowwire.Flow) {
		if res == od {
			bytesSum += float64(rec.Bytes)
			pktsSum += float64(rec.Packets)
			flowsSum++
		}
	})
	col := od.Index()
	// The matrix cell may also contain records from OTHER generating cells
	// that resolved here; for a self-pair, cross-traffic requires another
	// CHIN-origin OD resolving dst to CHIN, which happens only for spoofed
	// dst (none in background). So the cell should match exactly.
	if got := d.Matrix(Bytes).At(bin, col); math.Abs(got-bytesSum) > 0.5 {
		t.Fatalf("bytes regeneration %v != %v", bytesSum, got)
	}
	if got := d.Matrix(Packets).At(bin, col); math.Abs(got-pktsSum) > 0.5 {
		t.Fatalf("packets regeneration %v != %v", pktsSum, got)
	}
	if got := d.Matrix(Flows).At(bin, col); math.Abs(got-flowsSum) > 0.5 {
		t.Fatalf("flows regeneration %v != %v", flowsSum, got)
	}
}

func TestGenerateDeterministicAcrossWorkers(t *testing.T) {
	// The parallel fan-out must be invisible in the output: 1 worker and 8
	// workers produce byte-identical matrices and identical record counters
	// for the same seed.
	cfg := tinyConfig()
	cfg.Workers = 1
	d1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	d8, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d1.RawRecords != d8.RawRecords || d1.UnresolvedRecords != d8.UnresolvedRecords {
		t.Fatalf("counters differ across workers: raw %d/%d unresolved %d/%d",
			d1.RawRecords, d8.RawRecords, d1.UnresolvedRecords, d8.UnresolvedRecords)
	}
	for m := Measure(0); m < NumMeasures; m++ {
		x1, x8 := d1.Matrix(m), d8.Matrix(m)
		for bin := 0; bin < d1.Bins; bin++ {
			for od := 0; od < topology.NumODPairs; od++ {
				a, b := x1.At(bin, od), x8.At(bin, od)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("measure %v differs at (%d,%d): %v (1 worker) vs %v (8 workers)",
						m, bin, od, a, b)
				}
			}
		}
	}
}

func TestCountersFrozenAfterGenerate(t *testing.T) {
	// Regression for the pre-parallel bug where every per-bin regeneration
	// (attribute detail, record replay) re-counted its records into
	// RawRecords/UnresolvedRecords, inflating the data-reduction statistic.
	d := quickDataset(t)
	raw, unres := d.RawRecords, d.UnresolvedRecords
	od := topology.ODPair{Origin: topology.ATLA, Dest: topology.NYCM}
	d.ForEachResolvedRecord(od, 42, func(topology.ODPair, flowwire.Flow) {})
	_ = d.BinAttributes(od, 42)
	if d.RawRecords != raw || d.UnresolvedRecords != unres {
		t.Fatalf("replay mutated frozen counters: raw %d->%d unresolved %d->%d",
			raw, d.RawRecords, unres, d.UnresolvedRecords)
	}
}

func TestPerCellAllocsBounded(t *testing.T) {
	// The per-cell measurement path must stay allocation-free: with a warm
	// scratch the whole synthesize->sample->resolve chain for one cell —
	// the cell RNG included, one rand.PCG reseeded in place — allocates
	// nothing, and only a cell an injector touches allocates its classes.
	// AllocsPerRun averages with integer division, so the bound is "fewer
	// than one a cell" (a fresh RNG a cell made it 2).
	d := quickDataset(t)
	sc := getScratch()
	defer putScratch(sc)
	od := topology.ODPair{Origin: topology.CHIN, Dest: topology.LOSA}
	bin := 0
	nop := func(topology.ODPair, flowwire.Flow) {}
	avg := testing.AllocsPerRun(50, func() {
		d.forEachResolvedRecord(od, bin, sc, nop)
		bin = (bin + 1) % d.Bins
	})
	if avg > 0 {
		t.Fatalf("per-cell path allocates %.1f/op, want fewer than 1", avg)
	}
}

func TestBinAttributesAllocsBounded(t *testing.T) {
	// Summarizing a cell costs the per-cell path above plus the summary and
	// its twelve fixed-capacity sketches (two allocations each) — and
	// nothing per record: the classifier runs this for every OD of every
	// event, behind every streamed verdict. A sketch that allocates on
	// eviction puts this in the hundreds.
	d := quickDataset(t)
	od := topology.ODPair{Origin: topology.CHIN, Dest: topology.LOSA}
	bin := 0
	avg := testing.AllocsPerRun(50, func() {
		d.BinAttributes(od, bin)
		bin = (bin + 1) % d.Bins
	})
	if avg > 40 {
		t.Fatalf("BinAttributes allocates %.1f/op, want <= 40", avg)
	}
}

func TestInjectedAlphaVisibleInMatrix(t *testing.T) {
	// Build a dataset with exactly one huge ALPHA and check the B matrix
	// spikes at its cell.
	cfg := tinyConfig()
	cfg.Schedule = anomaly.ScheduleConfig{
		Weeks: 1, Alphas: 1, RefBytes: cfg.MeanRateBps * traffic.BinSeconds / topology.NumODPairs,
		Seed: 3,
	}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := d.Ledger.Specs()
	if len(specs) != 1 || specs[0].Type != anomaly.Alpha {
		t.Fatalf("schedule: %+v", specs)
	}
	s := specs[0]
	od := s.ODs[0]
	col := od.Index()
	b := d.Matrix(Bytes)
	// Median background at this OD.
	var bg []float64
	for bin := 0; bin < d.Bins; bin++ {
		if bin < s.StartBin || bin > s.EndBin {
			bg = append(bg, b.At(bin, col))
		}
	}
	var bgSum float64
	for _, v := range bg {
		bgSum += v
	}
	bgMean := bgSum / float64(len(bg))
	spike := b.At(s.StartBin, col)
	if spike < bgMean*3 {
		t.Fatalf("alpha spike %v not visible over background %v", spike, bgMean)
	}
}

func TestBinAttributesDominance(t *testing.T) {
	// With one DOS injected, the victim address and port must be dominant
	// in packets at the attack cell, with no dominant source. Volume is
	// high enough that quiet cells carry a few dozen visible flows (with
	// only a handful of flows, any cell is trivially "dominated").
	cfg := tinyConfig()
	cfg.MeanRateBps = 2e6
	cfg.Schedule = anomaly.ScheduleConfig{
		Weeks: 1, DOSes: 1, RefBytes: cfg.MeanRateBps * traffic.BinSeconds / topology.NumODPairs,
		Seed: 11,
	}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := d.Ledger.Specs()[0]
	if s.Type != anomaly.DOS {
		t.Fatalf("expected DOS, got %v", s.Type)
	}
	attr := d.BinAttributes(s.ODs[0], s.StartBin)
	if _, ok := attr.Dominant(Packets, DstAddr, 0.2); !ok {
		t.Fatal("DOS victim address not dominant in packets")
	}
	if _, ok := attr.Dominant(Packets, DstPort, 0.2); !ok {
		t.Fatal("DOS port not dominant in packets")
	}
	if _, ok := attr.Dominant(Flows, SrcAddr, 0.2); ok {
		t.Fatal("spoofed sources must not be dominant in flows")
	}
	// A quiet neighboring bin spreads its flows across destinations: no
	// dominant destination range by flow count. (By bytes a single elephant
	// flow can legitimately dominate a quiet cell, so the byte measure is
	// not checked here.)
	quiet := d.BinAttributes(s.ODs[0], s.StartBin+100)
	if _, ok := quiet.Dominant(Flows, DstAddr, 0.2); ok {
		t.Fatal("background shows dominant destination by flow count")
	}
}

func TestAttributeSummaryMerge(t *testing.T) {
	d := quickDataset(t)
	od := topology.ODPair{Origin: topology.ATLA, Dest: topology.NYCM}
	a := d.BinAttributes(od, 100)
	b := d.BinAttributes(od, 101)
	totalWant := a.Total[Flows] + b.Total[Flows]
	a.Merge(b)
	if math.Abs(a.Total[Flows]-totalWant) > 0.5 {
		t.Fatalf("merged flow total %v, want %v", a.Total[Flows], totalWant)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := quickDataset(t)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Bins != d.Bins || d2.RawRecords != d.RawRecords {
		t.Fatal("metadata mismatch after load")
	}
	for m := Measure(0); m < NumMeasures; m++ {
		for bin := 0; bin < d.Bins; bin += 311 {
			for od := 0; od < topology.NumODPairs; od += 13 {
				if d.X[m].At(bin, od) != d2.X[m].At(bin, od) {
					t.Fatalf("matrix %v differs at (%d,%d)", m, bin, od)
				}
			}
		}
	}
	// The rebuilt generator state regenerates identical attribute detail.
	od := topology.ODPair{Origin: topology.STTL, Dest: topology.WASH}
	a1 := d.BinAttributes(od, 50)
	a2 := d2.BinAttributes(od, 50)
	for m := Measure(0); m < NumMeasures; m++ {
		if math.Abs(a1.Total[m]-a2.Total[m]) > 1e-9 {
			t.Fatalf("regenerated totals differ for %v", m)
		}
	}
	// Ledger must be rebuilt identically.
	s1, s2 := d.Ledger.Specs(), d2.Ledger.Specs()
	if len(s1) != len(s2) {
		t.Fatal("ledger size differs after load")
	}
	for i := range s1 {
		if s1[i].ID != s2[i].ID || s1[i].Type != s2[i].Type || s1[i].StartBin != s2[i].StartBin {
			t.Fatalf("ledger differs at %d", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a dataset"))); err == nil {
		t.Fatal("garbage accepted")
	}
}
