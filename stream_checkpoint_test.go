package netwide_test

// Detector-level checkpoint/restore parity: a StreamDetector snapshotted
// mid-stream and rebuilt (through the daemon's snapshot format, written and
// read back by internal/checkpoint) must characterize the remaining bins
// exactly as the uninterrupted detector — same anomalies, same classes,
// same OD sets — including anomalies whose windows straddle the checkpoint
// itself, which only survive because the aggregator's open events cross
// the snapshot.

import (
	"bytes"
	"slices"
	"sort"
	"testing"

	"netwide"
	"netwide/internal/checkpoint"
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

// snapshotRoundTrip carries cp through the bytes a daemon writes: a
// checkpoint.State around it, fingerprinted for run, through
// checkpoint.Write and checkpoint.Read.
func snapshotRoundTrip(t *testing.T, run *netwide.Run, cp netwide.StreamCheckpoint) netwide.StreamCheckpoint {
	t.Helper()
	ds := run.Dataset()
	opts := netwide.DefaultDetectOptions()
	var buf bytes.Buffer
	err := checkpoint.Write(&buf, &checkpoint.State{
		Topology: ds.Top.Name,
		ODPairs:  ds.NumODPairs(),
		Measures: int(dataset.NumMeasures),
		K:        opts.K,
		Alpha:    opts.Alpha,
		Stream:   cp,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return st.Stream
}

func TestStreamCheckpointRestoreParity(t *testing.T) {
	run := quickRun(t)
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

	restored, err := run.RestoreStreamDetector(snapshotRoundTrip(t, run, cp), cfg)
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

// TestStreamCheckpointWithRefits: with refits on, a detector restored from
// a checkpoint scores and characterizes the rest of the run bit for bit as
// the uninterrupted one. The cut falls right after the bin whose Observe
// handed out a refit window, the spot where a refit could once still be in
// flight: the snapshot must carry the new generation, with the refit phase
// back at zero and the window, so the restored lanes refit on the same bins.
func TestStreamCheckpointWithRefits(t *testing.T) {
	run := quickRun(t)
	bins := run.Bins()
	half := bins / 2
	cfg := netwide.StreamConfig{
		TrainBins:  half,
		BatchSize:  16,
		RefitEvery: 72,
		Window:     half,
	}
	const refits = 7
	cut := half + refits*cfg.RefitEvery

	full, err := run.NewStreamDetector(netwide.DefaultDetectOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := runDetector(t, run, full, half, bins)
	wantTail := full.TailAnomalies()

	head, err := run.NewStreamDetector(netwide.DefaultDetectOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, cps := runDetector(t, run, head, half, cut, cut)
	cp := cps[cut]
	for m, lc := range cp.Lanes {
		if len(lc.Window) != cfg.Window || lc.Since != 0 || lc.Model.Gen != refits {
			t.Fatalf("measure %d checkpoint: %d window rows, phase %d, generation %d; want %d, 0, %d",
				m, len(lc.Window), lc.Since, lc.Model.Gen, cfg.Window, refits)
		}
	}
	restored, err := run.RestoreStreamDetector(snapshotRoundTrip(t, run, cp), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rest, _ := runDetector(t, run, restored, cut, bins)
	got = append(got, rest...)
	gotTail := restored.TailAnomalies()

	if len(got) != len(want) {
		t.Fatalf("split run emitted %d verdicts, uninterrupted %d", len(got), len(want))
	}
	anomalies := 0
	for i, w := range want {
		g := got[i]
		if g.Bin != w.Bin || g.Points != w.Points || g.Measures != w.Measures || g.Generations != w.Generations {
			t.Fatalf("bin %d: split %+v gens %v, uninterrupted %+v gens %v", w.Bin, g.Points, g.Generations, w.Points, w.Generations)
		}
		for m, gen := range w.Generations {
			if due := uint64((w.Bin - half) / cfg.RefitEvery); gen != due {
				t.Fatalf("bin %d measure %d scored by generation %d, want %d", w.Bin, m, gen, due)
			}
		}
		if gk, wk := sortKeys(g.Anomalies), sortKeys(w.Anomalies); !slices.Equal(gk, wk) {
			t.Fatalf("bin %d anomalies:\n split         %v\n uninterrupted %v", w.Bin, gk, wk)
		}
		anomalies += len(w.Anomalies)
	}
	if gk, wk := sortKeys(gotTail), sortKeys(wantTail); !slices.Equal(gk, wk) {
		t.Fatalf("tail anomalies:\n split         %v\n uninterrupted %v", gk, wk)
	}
	if anomalies == 0 {
		t.Fatal("run characterized no anomalies; parity check is vacuous")
	}
}
