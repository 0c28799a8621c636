package dataset

// Perf-path benchmark for the measurement substrate's inner loop. The
// whole-pipeline serial-vs-parallel pair lives in the root package
// (BenchmarkSimulateWeekSerial / BenchmarkSimulateWeek); here
// BenchmarkCellReplay isolates the per-cell
// synthesize->sample->resolve chain that dominates it,
// with allocs/op as the regression signal for the scratch-reuse diet.
//
// Run with: go test -bench=. -benchmem ./internal/dataset/

import (
	"testing"

	"netwide/internal/flowwire"
	"netwide/internal/topology"
)

func benchConfig() Config {
	cfg := DefaultConfig()
	cfg.Weeks = 1
	cfg.MeanRateBps = 4e5
	return cfg
}

// BenchmarkCellReplay measures one (OD, bin) cell through the full
// measurement chain with a warm scratch — the steady-state inner loop of
// Generate. allocs/op here is the number to watch: scratch reuse holds it
// to single digits.
func BenchmarkCellReplay(b *testing.B) {
	d, err := Generate(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	sc := getScratch()
	defer putScratch(sc)
	od := topology.ODPair{Origin: topology.CHIN, Dest: topology.LOSA}
	nop := func(topology.ODPair, flowwire.Flow) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.forEachResolvedRecord(od, i%d.Bins, sc, nop)
	}
}
