package netwide_test

// Detector-level checkpoint/restore parity: a StreamDetector snapshotted
// mid-stream and rebuilt (through a gob round trip, the way the on-disk
// envelope carries it) must characterize the remaining bins exactly as the
// uninterrupted detector — same anomalies, same classes, same OD sets —
// including anomalies whose windows straddle the checkpoint itself, which
// only survive because the aggregator's open events cross the snapshot.

import (
	"bytes"
	"encoding/gob"
	"sort"
	"testing"

	"netwide"
	"netwide/internal/dataset"
)

// runDetector feeds bins [from, to) of the run into det, checkpointing
// just before each bin listed in cuts (so cut c snapshots with bins
// [from, c) characterized; the cut bin is the barrier's token). Returns the
// data verdicts in order and the captured checkpoints keyed by cut bin. A
// barrier verdict must arrive exactly between the verdicts of bins c-1 and
// c: Checkpoint does not wait for it, the verdict stream carries it.
func runDetector(t *testing.T, run *netwide.Run, det *netwide.StreamDetector, from, to int, cuts ...int) ([]netwide.StreamVerdict, map[int]netwide.StreamCheckpoint) {
	t.Helper()
	cutSet := map[int]bool{}
	for _, c := range cuts {
		cutSet[c] = true
	}
	var got []netwide.StreamVerdict
	cps := map[int]netwide.StreamCheckpoint{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		next := from
		for v := range det.Verdicts() {
			if v.Checkpoint != nil {
				if cut := v.Token.(int); cut != next || v.Bin != -1 || v.Alarm() {
					t.Errorf("barrier for cut %d arrived before bin %d as %+v", cut, next, v)
				}
				cps[v.Token.(int)] = *v.Checkpoint
				continue
			}
			got = append(got, v)
			next = v.Bin + 1
		}
	}()
	ds := run.Dataset()
	takeCp := func(bin int) {
		if err := det.Checkpoint(bin); err != nil {
			t.Fatalf("checkpoint before bin %d: %v", bin, err)
		}
	}
	for bin := from; bin < to; bin++ {
		if cutSet[bin] {
			takeCp(bin)
		}
		err := det.Submit(bin,
			ds.Matrix(dataset.Bytes).RowView(bin),
			ds.Matrix(dataset.Packets).RowView(bin),
			ds.Matrix(dataset.Flows).RowView(bin))
		if err != nil {
			t.Fatal(err)
		}
	}
	if cutSet[to] {
		takeCp(to)
	}
	det.Close()
	if err := det.Wait(); err != nil {
		t.Fatal(err)
	}
	<-done
	if len(cps) != len(cutSet) {
		t.Fatalf("%d of %d barriers came back on the verdict stream", len(cps), len(cutSet))
	}
	return got, cps
}

func anomaliesOf(verdicts []netwide.StreamVerdict, tail []netwide.Anomaly) []netwide.Anomaly {
	var out []netwide.Anomaly
	for _, v := range verdicts {
		out = append(out, v.Anomalies...)
	}
	return append(out, tail...)
}

func sortKeys(as []netwide.Anomaly) []string {
	keys := make([]string, len(as))
	for i, a := range as {
		keys[i] = anomalyKey(a)
	}
	sort.Strings(keys)
	return keys
}

func gobRoundTrip(t *testing.T, cp netwide.StreamCheckpoint) netwide.StreamCheckpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		t.Fatal(err)
	}
	var out netwide.StreamCheckpoint
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestStreamCheckpointRestoreParity(t *testing.T) {
	run, err := netwide.Simulate(netwide.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := netwide.StreamConfig{TrainBins: run.Bins(), BatchSize: 16}
	bins := run.Bins()
	cut := bins / 2

	full, err := run.NewStreamDetector(netwide.DefaultDetectOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantVs, _ := runDetector(t, run, full, 0, bins)
	want := anomaliesOf(wantVs, full.TailAnomalies())

	head, err := run.NewStreamDetector(netwide.DefaultDetectOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	headVs, cps := runDetector(t, run, head, 0, cut, cut)
	cp := cps[cut]

	var pre uint64
	for _, v := range headVs[:] {
		if v.Bin < cut {
			pre += uint64(len(v.Anomalies))
		}
	}
	if cp.Emitted != pre {
		t.Fatalf("checkpoint Emitted = %d, delivered before cut = %d", cp.Emitted, pre)
	}
	if cp.LastBin != cut-1 || !cp.Started {
		t.Fatalf("checkpoint cursor = (%d,%v), want (%d,true)", cp.LastBin, cp.Started, cut-1)
	}

	restored, err := run.RestoreStreamDetector(gobRoundTrip(t, cp), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tailVs, _ := runDetector(t, run, restored, cut, bins)
	var got []netwide.Anomaly
	for _, v := range headVs {
		if v.Bin < cut {
			got = append(got, v.Anomalies...)
		}
	}
	got = append(got, anomaliesOf(tailVs, restored.TailAnomalies())...)

	gk, wk := sortKeys(got), sortKeys(want)
	if len(gk) != len(wk) {
		t.Fatalf("split run characterized %d anomalies, uninterrupted %d", len(gk), len(wk))
	}
	for i := range wk {
		if gk[i] != wk[i] {
			t.Fatalf("anomaly %d:\n split         %s\n uninterrupted %s", i, gk[i], wk[i])
		}
	}
	if len(want) == 0 {
		t.Fatal("run characterized no anomalies; parity check is vacuous")
	}

	// The detector rejects bins behind the restored cursor, same as the
	// live one would have.
	ds := run.Dataset()
	reject, err := run.RestoreStreamDetector(cp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range reject.Verdicts() {
		}
	}()
	if err := reject.Submit(cut-2,
		ds.Matrix(dataset.Bytes).RowView(cut-2),
		ds.Matrix(dataset.Packets).RowView(cut-2),
		ds.Matrix(dataset.Flows).RowView(cut-2)); err == nil {
		t.Fatal("restored detector accepted a bin behind its cursor")
	}
	reject.Close()
	if err := reject.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamCheckpointWithRefits: with background refits on, a checkpoint
// carries the refit windows and model generations, and the restored
// detector keeps scoring and refitting from there. Refit timing is
// scheduler-dependent, so this pins liveness and state carriage, not
// bit-parity (which TestStreamCheckpointRestoreParity pins with refits
// off).
func TestStreamCheckpointWithRefits(t *testing.T) {
	run, err := netwide.Simulate(netwide.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	bins := run.Bins()
	half := bins / 2
	cfg := netwide.StreamConfig{
		TrainBins:  half,
		BatchSize:  16,
		RefitEvery: 72,
		Window:     half,
	}
	det, err := run.NewStreamDetector(netwide.DefaultDetectOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cut := half + bins/4
	vs, cps := runDetector(t, run, det, half, bins, cut)
	if len(vs) != bins-half {
		t.Fatalf("got %d verdicts, want %d", len(vs), bins-half)
	}
	cp := cps[cut]
	for i, lc := range cp.Lanes {
		if len(lc.Window) == 0 {
			t.Fatalf("lane %d checkpoint carries no refit window", i)
		}
		// Since may exceed RefitEvery while a refit hand-off is pending
		// (the refitter was busy), but never goes negative.
		if lc.Since < 0 {
			t.Fatalf("lane %d negative refit phase %d", i, lc.Since)
		}
	}

	restored, err := run.RestoreStreamDetector(gobRoundTrip(t, cp), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rvs, _ := runDetector(t, run, restored, cut, bins)
	if len(rvs) != bins-cut {
		t.Fatalf("restored detector emitted %d verdicts, want %d", len(rvs), bins-cut)
	}
	for i, v := range rvs {
		if v.Bin != cut+i {
			t.Fatalf("restored verdict %d has bin %d, want %d", i, v.Bin, cut+i)
		}
		for m, g := range v.Generations {
			if g < cp.Lanes[m].Model.Gen {
				t.Fatalf("bin %d measure %d scored on generation %d, below restored generation %d", v.Bin, m, g, cp.Lanes[m].Model.Gen)
			}
		}
	}
}
