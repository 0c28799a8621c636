package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"netwide/internal/engine"
	"netwide/internal/topology"
)

// quickAbilene mirrors netwide.QuickConfig: the 1-week reference run whose
// bytes the golden test pins.
func quickAbilene() Config {
	cfg := DefaultConfig()
	cfg.Weeks = 1
	cfg.MeanRateBps = 8e5
	return cfg
}

// datasetFingerprint hashes every float of the three matrices in row order.
func datasetFingerprint(d *Dataset) string {
	h := sha256.New()
	var buf [8]byte
	for m := Measure(0); m < NumMeasures; m++ {
		x := d.Matrix(m)
		for i := 0; i < x.Rows(); i++ {
			for _, v := range x.RowView(i) {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// ledgerFingerprint hashes the injected ground truth.
func ledgerFingerprint(d *Dataset) string {
	h := sha256.New()
	for _, s := range d.Ledger.Specs() {
		fmt.Fprintf(h, "%d %v %d-%d %v %s;", s.ID, s.Type, s.StartBin, s.EndBin, s.ODs, s.Note)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestAbileneGoldenDataset pins the entire measurement pipeline on the
// reference topology to the bytes it produced before the topology layer
// became Spec-driven: same matrices to the last float, same ground-truth
// ledger, same record counters. The golden hashes were captured from the
// pre-refactor implementation.
func TestAbileneGoldenDataset(t *testing.T) {
	const (
		goldenData       = "3f6c64917d92454aa9931bb48e65de7ac1623adf4adbef8e8b94ac91a44f51fa"
		goldenLedger     = "61172ba481a629051e400308e46711750cfec676416a4b12273d16be52ffd3fd"
		goldenRaw        = 5254296
		goldenUnresolved = 367172
	)
	d, err := Generate(quickAbilene())
	if err != nil {
		t.Fatal(err)
	}
	if got := datasetFingerprint(d); got != goldenData {
		t.Errorf("dataset bytes drifted from the pre-refactor pipeline:\n got  %s\n want %s", got, goldenData)
	}
	if got := ledgerFingerprint(d); got != goldenLedger {
		t.Errorf("ground-truth ledger drifted:\n got  %s\n want %s", got, goldenLedger)
	}
	if d.RawRecords != goldenRaw || d.UnresolvedRecords != goldenUnresolved {
		t.Errorf("record counters drifted: raw %d unresolved %d, want %d/%d",
			d.RawRecords, d.UnresolvedRecords, goldenRaw, goldenUnresolved)
	}
}

// TestSyntheticWorkerDeterminism extends the byte-identical-at-any-worker-
// count guarantee to non-reference topologies.
func TestSyntheticWorkerDeterminism(t *testing.T) {
	base := Config{
		Weeks: 1, Seed: 99, MeanRateBps: 6e5,
		SamplingRate: 0.01, UnresolvedFraction: 0.07,
		Topology: topology.Ref{Kind: "synthetic", N: 16, Seed: 5},
	}
	serial := base
	serial.Workers = 1
	d1, err := Generate(serial)
	if err != nil {
		t.Fatal(err)
	}
	parallel := base
	parallel.Workers = 4
	d2, err := Generate(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if datasetFingerprint(d1) != datasetFingerprint(d2) {
		t.Fatal("synthetic dataset differs across worker counts")
	}
	if d1.RawRecords != d2.RawRecords || d1.UnresolvedRecords != d2.UnresolvedRecords {
		t.Fatal("record counters differ across worker counts")
	}
	if ledgerFingerprint(d1) != ledgerFingerprint(d2) {
		t.Fatal("ledgers differ across worker counts")
	}
}

// TestTopologyRefSurvivesSaveLoad checks that a dataset generated on a
// non-default topology round-trips through Save/Load: the stored Ref is
// rebuilt into the same topology, so matrix widths and OD naming agree.
func TestTopologyRefSurvivesSaveLoad(t *testing.T) {
	cfg := Config{
		Weeks: 1, Seed: 3, MeanRateBps: 4e5,
		SamplingRate: 0.01, UnresolvedFraction: 0.07,
		Topology: topology.Ref{Kind: "synthetic", N: 8, Seed: 2},
	}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Top.Name != d.Top.Name || loaded.Top.NumODPairs() != 64 {
		t.Fatalf("topology not rebuilt: %s / %d", loaded.Top.Name, loaded.Top.NumODPairs())
	}
	if datasetFingerprint(loaded) != datasetFingerprint(d) {
		t.Fatal("matrices changed across save/load")
	}
	if ledgerFingerprint(loaded) != ledgerFingerprint(d) {
		t.Fatal("ledger changed across save/load")
	}
}

// TestSyntheticEndToEnd100 is the scale acceptance test: a 100-PoP
// synthetic backbone (10 000 OD pairs) simulates a full week through the
// parallel measurement pipeline and the byte matrix runs through subspace
// detection on the partial-PCA path. On one core this takes on the order of
// a minute; -short skips it.
func TestSyntheticEndToEnd100(t *testing.T) {
	if testing.Short() {
		t.Skip("full-week 100-PoP end-to-end run skipped in -short mode")
	}
	cfg := Config{
		Weeks: 1, Seed: 2004, MeanRateBps: 8e5,
		SamplingRate: 0.01, UnresolvedFraction: 0.07,
		Topology: topology.Ref{Kind: "synthetic", N: 100, Seed: 7},
	}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Top.NumPoPs() != 100 || d.Matrix(Bytes).Cols() != 10000 {
		t.Fatalf("unexpected shape: %d PoPs, %d cols", d.Top.NumPoPs(), d.Matrix(Bytes).Cols())
	}
	if d.RawRecords == 0 {
		t.Fatal("pipeline produced no flow records")
	}
	x := d.Matrix(Bytes)
	model, err := engine.Fit(x, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, x.Rows())
	for j := range rows {
		rows[j] = x.RowView(j)
	}
	pts, err := model.ScoreBatch(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	spes := make([]float64, len(pts))
	alarms := 0
	for j, pt := range pts {
		spes[j] = pt.SPE
		if pt.SPEAlarm || pt.T2Alarm {
			alarms++
		}
	}
	if alarms == 0 {
		t.Fatal("no alarms over a week with the default anomaly schedule")
	}
	// The injected byte-heavy anomalies must be visible: for most alpha
	// flows (the strongest byte signal), the SPE inside the injected window
	// has to beat the run's median SPE.
	median := quickMedian(append([]float64(nil), spes...))
	hits, total := 0, 0
	for _, inj := range d.Ledger.Injectors {
		s := inj.Spec()
		if s.Type.String() != "ALPHA" {
			continue
		}
		total++
		for b := s.StartBin; b <= s.EndBin && b < len(spes); b++ {
			if spes[b] > median {
				hits++
				break
			}
		}
	}
	if total == 0 {
		t.Fatal("schedule injected no alpha flows")
	}
	if hits*2 < total {
		t.Fatalf("only %d/%d injected alpha windows rise above the median SPE", hits, total)
	}
}

func quickMedian(xs []float64) float64 {
	// Insertion-free selection is overkill here; copy and sort via the
	// stdlib would drag in another import, so use a simple nth-element scan.
	lo, hi := 0, len(xs)-1
	k := len(xs) / 2
	for lo < hi {
		pivot := xs[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return xs[k]
}
