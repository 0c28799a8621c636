// Package dataset assembles the full measurement pipeline into the three
// multivariate OD-flow timeseries the subspace method consumes: per 5-minute
// bin and per OD pair, the sampled byte count (B), packet count (P) and
// IP-flow count (F), exactly as in Section 2.1 of the paper.
//
// The pipeline per (OD pair, bin) is:
//
//	background flow classes (gravity x diurnal x noise, application mix)
//	+ anomaly injector classes and volume scaling     (ground truth ledger)
//	-> 1% packet sampling -> visible flow records     (traffic.Measure)
//	   in the NetFlow v5 record's fields              (flowwire.Flow)
//	-> egress resolution by longest-prefix match on the anonymized
//	   destination + simulated resolution failures    (routing)
//	-> accumulation into the B/P/F matrices.
//
// Everything is keyed by (seed, OD, bin), so any single bin can be
// regenerated in isolation; the classifier uses this to compute attribute
// detail (dominant addresses/ports) only at bins where detection fired,
// instead of retaining per-bin attribute state for the whole run.
package dataset

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"netwide/internal/anomaly"
	"netwide/internal/flow"
	"netwide/internal/flowwire"
	"netwide/internal/mat"
	"netwide/internal/routing"
	"netwide/internal/sampling"
	"netwide/internal/scenario"
	"netwide/internal/topology"
	"netwide/internal/traffic"
)

// Measure identifies one of the three traffic types.
type Measure int

// The three traffic types of the paper.
const (
	Bytes Measure = iota
	Packets
	Flows
	NumMeasures
)

var measureNames = [NumMeasures]string{"B", "P", "F"}

// String returns the paper's single-letter code (B, P or F).
func (m Measure) String() string {
	if m < 0 || m >= NumMeasures {
		return fmt.Sprintf("Measure(%d)", int(m))
	}
	return measureNames[m]
}

// ParseMeasure maps the paper's single-letter traffic-type codes back to
// measure indices — the inverse of String, shared by every surface that
// accepts a measure name.
func ParseMeasure(s string) (Measure, error) {
	for m := Measure(0); m < NumMeasures; m++ {
		if s == measureNames[m] {
			return m, nil
		}
	}
	return 0, fmt.Errorf("dataset: unknown measure %q (want B, P or F)", s)
}

// Config fully determines a synthetic dataset (same Config, same bytes).
type Config struct {
	// Weeks of 5-minute bins to generate.
	Weeks int
	// Seed drives all randomness.
	Seed uint64
	// MeanRateBps is the network-wide mean offered load, bytes/second.
	MeanRateBps float64
	// SamplingRate is the per-packet sampling probability (paper: 0.01).
	SamplingRate float64
	// UnresolvedFraction of flow records cannot be mapped to an OD pair
	// (paper: ~7% unresolved).
	UnresolvedFraction float64
	// Topology selects the simulated backbone; the zero Ref means the
	// reference Abilene network. The Ref (not the built topology) is what
	// dataset files persist, so loads rebuild the topology
	// deterministically.
	Topology topology.Ref
	// Scenario, when non-nil, replaces the random anomaly schedule with a
	// declarative episode plan (see internal/scenario).
	Scenario *scenario.Scenario
	// Schedule configures the injected anomaly population when Scenario is
	// nil. A zero value (Weeks == 0) is replaced by anomaly.DefaultSchedule.
	Schedule anomaly.ScheduleConfig
	// Workers is the number of goroutines generating timebins; <= 0 means
	// GOMAXPROCS. Every (OD, bin) cell draws from its own deterministic RNG
	// stream and every bin owns its matrix rows, so the generated dataset is
	// byte-identical for every worker count — Workers trades only wall-clock
	// time, never output.
	Workers int
}

// DefaultConfig returns the configuration used throughout the experiments:
// 1%-sampled 4-week run with the paper's anomaly prevalence.
func DefaultConfig() Config {
	return Config{
		Weeks:              4,
		Seed:               2004,
		MeanRateBps:        2e6,
		SamplingRate:       sampling.AbileneRate,
		UnresolvedFraction: 0.07,
	}
}

// Dataset is a generated run: the three matrices plus everything needed to
// regenerate per-bin detail.
type Dataset struct {
	Cfg    Config
	Top    *topology.Topology
	BG     *traffic.Background
	Ledger *anomaly.Ledger

	// Bins is the number of timebins (rows of the matrices).
	Bins int
	// X holds the three bins x NumODPairs matrices indexed by Measure.
	X [NumMeasures]*mat.Matrix

	sampler  sampling.Sampler
	resolver *routing.Resolver
	// binIndex[bin] lists injectors whose window covers the bin.
	binIndex [][]anomaly.Injector
	// RawRecords counts every flow record that reached the collector
	// (resolved or not) during Generate; used by the data-reduction
	// experiment. Frozen after Generate: per-bin regeneration (attribute
	// detail, record replay) never changes it.
	RawRecords uint64
	// UnresolvedRecords counts records dropped by failed OD resolution
	// during Generate. Frozen after Generate, like RawRecords.
	UnresolvedRecords uint64
}

// Generate runs the full pipeline, fanning the timebins out across
// min(cfg.Workers, number of bins) goroutines (GOMAXPROCS when Workers <= 0).
//
// Parallelism cannot change the output: each (OD, bin) cell consumes only
// its own deterministic RNG stream, a bin is always processed whole by one
// worker, and each bin owns its rows of the three matrices, so the per-row
// accumulation order — and therefore every float — is identical for every
// worker count.
func Generate(cfg Config) (*Dataset, error) {
	d, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	d.allocMatrices()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > d.Bins {
		workers = d.Bins
	}
	if workers == 1 {
		sc := getScratch()
		defer putScratch(sc)
		for bin := 0; bin < d.Bins; bin++ {
			raw, unres := d.generateBin(bin, sc)
			d.RawRecords += raw
			d.UnresolvedRecords += unres
		}
		return d, nil
	}
	var (
		wg      sync.WaitGroup
		nextBin atomic.Int64
		raws    = make([]uint64, workers)
		unress  = make([]uint64, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := getScratch()
			defer putScratch(sc)
			var raw, unres uint64
			// Bins are claimed dynamically: anomalous bins can be far more
			// expensive than quiet ones, so static striping would leave
			// workers idle at the tail.
			for {
				bin := int(nextBin.Add(1)) - 1
				if bin >= d.Bins {
					break
				}
				r, u := d.generateBin(bin, sc)
				raw += r
				unres += u
			}
			raws[w], unress[w] = raw, unres
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		d.RawRecords += raws[w]
		d.UnresolvedRecords += unress[w]
	}
	return d, nil
}

// MaxWeeks bounds the length of a run. It exists to keep the measurement
// matrices addressable and — more importantly — so that a corrupt or
// hostile dataset file cannot drive an absurd allocation through Load: the
// stored Config is untrusted input and Weeks is its allocation lever.
const MaxWeeks = 1024

// prepare builds the pipeline objects without generating any bins and
// without allocating the measurement matrices — Generate allocates them
// (allocMatrices), Load adopts the deserialized ones instead.
func prepare(cfg Config) (*Dataset, error) {
	if cfg.Weeks <= 0 {
		return nil, fmt.Errorf("dataset: weeks %d must be positive", cfg.Weeks)
	}
	if cfg.Weeks > MaxWeeks {
		return nil, fmt.Errorf("dataset: weeks %d exceeds limit %d", cfg.Weeks, MaxWeeks)
	}
	if cfg.SamplingRate > 0 && 1/cfg.SamplingRate > 0xFFFF {
		// The NetFlow v5 header carries the sampling interval in 16 bits;
		// converting a wider interval would silently truncate (and for a
		// denormal rate the float-to-uint16 conversion is undefined).
		return nil, fmt.Errorf("dataset: sampling rate %v below the NetFlow limit 1/%d", cfg.SamplingRate, 0xFFFF)
	}
	top, err := cfg.Topology.Build()
	if err != nil {
		return nil, err
	}
	bg, err := traffic.NewBackground(top, cfg.MeanRateBps, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var led *anomaly.Ledger
	if cfg.Scenario != nil {
		led, err = cfg.Scenario.Build(top, bg, cfg.Weeks)
	} else {
		sched := cfg.Schedule
		if sched.Weeks == 0 {
			sched = anomaly.DefaultSchedule(bg, cfg.Weeks, cfg.Seed)
		}
		led, err = anomaly.Build(sched, top)
	}
	if err != nil {
		return nil, err
	}
	var sizes []uint64
	for _, app := range bg.Mix {
		for _, sc := range app.Sizes {
			sizes = append(sizes, sc.PktsPerFlow)
		}
	}
	smp, err := sampling.NewSampler(cfg.SamplingRate, sizes...)
	if err != nil {
		return nil, err
	}
	res, err := routing.BuildResolver(top, nil, cfg.UnresolvedFraction)
	if err != nil {
		return nil, err
	}
	bins := cfg.Weeks * traffic.BinsPerWeek
	d := &Dataset{
		Cfg: cfg, Top: top, BG: bg, Ledger: led,
		Bins: bins, sampler: smp, resolver: res,
	}
	d.binIndex = make([][]anomaly.Injector, bins)
	for _, inj := range led.Injectors {
		s := inj.Spec()
		for b := s.StartBin; b <= s.EndBin && b < bins; b++ {
			if b >= 0 {
				d.binIndex[b] = append(d.binIndex[b], inj)
			}
		}
	}
	return d, nil
}

// allocMatrices creates the three zeroed measurement matrices. Only the
// generation path needs them pre-allocated; Load adopts deserialized
// matrices instead, after validating them against the rebuilt topology.
func (d *Dataset) allocMatrices() {
	for m := Measure(0); m < NumMeasures; m++ {
		d.X[m] = mat.New(d.Bins, d.Top.NumODPairs())
	}
}

// scratch carries the reusable state of one generation worker: the cell's
// RNG (one rand.PCG reseeded per cell to the cell's BinSeed stream),
// the flow class and active-injector slices of classesFor and the cell's
// record buffer. One scratch serves one (OD, bin) cell at a time; pooling it
// takes a quiet cell's path from hundreds of allocations down to none.
type scratch struct {
	pcg     rand.PCG
	rng     *rand.Rand // draws from pcg
	classes []traffic.FlowClass
	active  []anomaly.Injector
	recs    []flowwire.Flow
}

var scratchPool = sync.Pool{New: func() any {
	sc := new(scratch)
	sc.rng = rand.New(&sc.pcg)
	return sc
}}

func getScratch() *scratch   { return scratchPool.Get().(*scratch) }
func putScratch(sc *scratch) { scratchPool.Put(sc) }

// classesFor appends all true-traffic flow classes of (od, bin) — the
// injector-scaled background plus injected classes — into sc.classes and
// returns it. It must consume the rng stream identically on every call with
// the same arguments.
func (d *Dataset) classesFor(od topology.ODPair, bin int, rng *rand.Rand, sc *scratch) []traffic.FlowClass {
	scale := 1.0
	sc.active = sc.active[:0]
	for _, inj := range d.binIndex[bin] {
		if inj.Spec().ActiveAt(od, bin) {
			sc.active = append(sc.active, inj)
			scale *= inj.VolumeScale(od, bin, d.BG)
		}
	}
	vol := d.BG.TrueVolume(od, bin) * scale
	sc.classes = d.BG.AppendClassesForVolume(sc.classes[:0], od, vol, rng)
	for _, inj := range sc.active {
		sc.classes = append(sc.classes, inj.Classes(od, bin, rng)...)
	}
	return sc.classes
}

// ForEachResolvedRecord regenerates the sampled and resolved flow records
// of one (od, bin) cell, invoking fn with each record and the OD pair it
// resolved to. It consumes the bin's deterministic RNG stream identically
// on every invocation, so the records are exactly those that were (or will
// be) accumulated into the matrices for that cell.
// Replaying a cell never alters the dataset — in particular the Generate-time
// RawRecords/UnresolvedRecords counters stay frozen.
//
// The ingress PoP comes from the export engine (interface-based config
// resolution); the egress PoP from a longest-prefix match on the anonymized
// destination address.
func (d *Dataset) ForEachResolvedRecord(od topology.ODPair, bin int, fn func(topology.ODPair, flowwire.Flow)) {
	sc := getScratch()
	defer putScratch(sc)
	d.forEachResolvedRecord(od, bin, sc, fn)
}

// forEachResolvedRecord is ForEachResolvedRecord on an explicit scratch,
// returning the cell's raw and unresolved record counts instead of touching
// shared state — the generation workers accumulate the returns per worker,
// which keeps the counters race-free and replay-invariant.
func (d *Dataset) forEachResolvedRecord(od topology.ODPair, bin int, sc *scratch, fn func(topology.ODPair, flowwire.Flow)) (raw, unresolved uint64) {
	sc.pcg.Seed(d.BG.BinSeed(od, bin))
	rng := sc.rng
	classes := d.classesFor(od, bin, rng, sc)
	// Every record of the cell is measured before the first is resolved:
	// resolution draws from the same RNG stream, after the sampling.
	sc.recs = sc.recs[:0]
	emit := func(r flow.Record) {
		// The records are what a collector decodes from the cell's NetFlow
		// v5 export, which carries 32-bit counters: a record past them
		// could not have been exported at all.
		if r.Packets > math.MaxUint32 || r.Bytes > math.MaxUint32 {
			panic(fmt.Sprintf("dataset: flow record of %d packets, %d bytes exceeds NetFlow v5's 32-bit counters", r.Packets, r.Bytes))
		}
		sc.recs = append(sc.recs, flowwire.Flow{Key: r.Key, Packets: r.Packets, Bytes: r.Bytes})
	}
	for i := range classes {
		traffic.Measure(&classes[i], &d.sampler, d.BG.Realm, rng, emit)
	}
	for _, rec := range sc.recs {
		raw++
		if d.Cfg.UnresolvedFraction > 0 && rng.Float64() < d.Cfg.UnresolvedFraction {
			unresolved++
			continue
		}
		egress, ok := d.resolver.ResolveDst(rec.Key.Dst)
		if !ok {
			unresolved++
			continue
		}
		fn(topology.ODPair{Origin: od.Origin, Dest: egress}, rec)
	}
	return raw, unresolved
}

// generateBin folds every (od, bin) cell of one timebin into the matrices.
// The bin owns its matrix rows, so concurrent calls for distinct bins never
// share a write target.
func (d *Dataset) generateBin(bin int, sc *scratch) (raw, unresolved uint64) {
	xb := d.X[Bytes].RowView(bin)
	xp := d.X[Packets].RowView(bin)
	xf := d.X[Flows].RowView(bin)
	accum := func(resolved topology.ODPair, rec flowwire.Flow) {
		col := d.Top.Index(resolved)
		xb[col] += float64(rec.Bytes)
		xp[col] += float64(rec.Packets)
		xf[col]++
	}
	for i := 0; i < d.Top.NumODPairs(); i++ {
		r, u := d.forEachResolvedRecord(d.Top.ODAt(i), bin, sc, accum)
		raw += r
		unresolved += u
	}
	return raw, unresolved
}

// Matrix returns the bins x NumODPairs sampled-traffic matrix for the
// measure.
func (d *Dataset) Matrix(m Measure) *mat.Matrix { return d.X[m] }

// NumODPairs returns the OD-matrix width of the dataset's topology.
func (d *Dataset) NumODPairs() int { return d.Top.NumODPairs() }

// ODAt maps a matrix column index back to its OD pair.
func (d *Dataset) ODAt(i int) topology.ODPair { return d.Top.ODAt(i) }

// ODName renders a matrix column index as "ORIG->DEST".
func (d *Dataset) ODName(i int) string { return d.Top.ODName(d.Top.ODAt(i)) }
