package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"

	"netwide"
	"netwide/internal/checkpoint"
	"netwide/internal/classify"
	"netwide/internal/dataset"
	"netwide/internal/engine"
	"netwide/internal/events"
	"netwide/internal/flowwire"
	"netwide/internal/identify"
	"netwide/internal/mat"
	"netwide/internal/server"
)

// perLayer lists the metrics a -trace 1 run reports, one layer (one
// module of the repository) per prefix. README.md says which end-to-end
// metric each should move, and on which workload.
var perLayer = []metricDef{
	{"udp.recv_ns_per_pkt", "ns", "lower", 0},
	{"flowwire.decode_ns_per_record", "ns", "lower", 0},
	{"flowwire.decode_allocs_per_pkt", "count", "lower", 0},
	{"flowwire.wire_bytes_per_record", "B", "lower", 0},
	{"flowwire.template_pkt_ratio", "ratio", "lower", 0},
	{"server.ingest_ns_per_record", "ns", "lower", 0},
	{"server.bin_self_ns_per_record", "ns", "lower", 0},
	{"server.ingest_allocs_per_pkt", "count", "lower", 0},
	{"server.close_bin_us_p50", "us", "lower", 0},
	{"server.close_bin_us_p90", "us", "lower", 0},
	{"server.queue_len_max", "count", "lower", 0},
	{"server.merge_queue_len_max", "count", "lower", 0},
	{"server.shard_skew", "ratio", "lower", 0},
	{"server.recv_skew", "ratio", "lower", 0},
	{"server.new_cold_ms", "ms", "lower", 0},
	{"server.drain_ms", "ms", "lower", 0},
	{"stream.replay_us_per_bin", "us", "lower", 0},
	{"stream.replay_allocs_per_bin", "count", "lower", 0},
	{"engine.score_us_per_bin", "us", "lower", 0},
	{"engine.update_incremental_us", "us", "lower", 0},
	{"engine.fit_ms", "ms", "lower", 0},
	{"engine.refit_warm_ms", "ms", "lower", 0},
	{"mat.pca_fit_ms", "ms", "lower", 0},
	{"mat.covariance_ms", "ms", "lower", 0},
	{"mat.symeigen_ms", "ms", "lower", 0},
	{"identify.attribute_us_per_alarm", "us", "lower", 0},
	{"identify.alarms", "count", "lower", 0},
	{"events.aggregate_us_per_bin", "us", "lower", 0},
	{"events.events", "count", "lower", 0},
	{"classify.classify_us_per_event", "us", "lower", 0},
	{"classify.events", "count", "lower", 0},
	{"checkpoint.snapshot_ms_p50", "ms", "lower", 0},
	{"checkpoint.snapshot_ms_p90", "ms", "lower", 0},
	{"checkpoint.encode_ms", "ms", "lower", 0},
	{"checkpoint.fsync_ms", "ms", "lower", 0},
	{"checkpoint.read_ms", "ms", "lower", 0},
	{"checkpoint.bytes", "B", "lower", 0},
	{"checkpoint.written", "count", "lower", 0},
	{"netwide.detect_s", "s", "lower", 0},
	{"netwide.characterize_s", "s", "lower", 0},
	{"dataset.simulate_s", "s", "lower", 0},
	{"dataset.encode_s", "s", "lower", 0},
	{"proc.alloc_bytes_per_record", "B", "lower", 0},
	{"proc.allocs_per_record", "count", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"budget.per_record_ns", "ns", "lower", 0},
	{"budget.per_bin_us", "us", "lower", 0},
	{"budget.serial_over_wall", "ratio", "higher", 0},
	{"gen.late_ms_p99", "ms", "lower", 0},
	{"gen.poll_share", "ratio", "lower", 0},
	{"calib.kernel_ms", "ms", "lower", 0},
}

const (
	// udpFloorDatagrams is how many datagrams the bare receive floor reads.
	udpFloorDatagrams = 20000
	// noCloseBins is how many leading bins the no-close ingest pass feeds;
	// it must stay under the daemon's MaxOpenBins (256).
	noCloseBins = 200
	// snapshotReps CheckpointNow calls give snapshot_ms its p90 ten samples
	// beyond it.
	snapshotReps = 100
	// updateReps bins are folded into the incremental tracker.
	updateReps = 200
	// fileReps is how often each checkpoint file operation is repeated.
	fileReps = 11
	// tracedClosedLoopPasses closed-loop passes give the queue gauges and
	// the wall the budget is held against.
	tracedClosedLoopPasses = 3
)

// memDelta reads the allocator counters around fn.
func memDelta(fn func()) (mallocs, bytes uint64, gcs uint32) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, b.NumGC - a.NumGC
}

func msOf(ns float64) float64 { return ns / 1e6 }
func usOf(ns float64) float64 { return ns / 1e3 }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// runTraced is the -trace 1 run: one goroutine drives the workload's
// datagrams and matrices through each layer's exported entry point with a
// span around every call, then a few wire passes supply the queue gauges,
// the generator's own numbers and the wall the budget is compared to.
// End-to-end metrics are never taken from here.
func (in *inputs) runTraced(o runOpts, res *result) error {
	w := in.w
	ds := in.run.Dataset()
	tr := newTracer(4*len(in.dgrams) + 16*ds.Bins + 1024)
	root := tr.begin(tr.nameID("traced-run"), -1, -1)
	phase := func(name string) int32 { return tr.begin(tr.nameID(name), root, -1) }
	records, bins := float64(in.records), float64(w.bins)

	res.set("calib.kernel_ms", "ms", res.CalibMs)
	res.set("dataset.simulate_s", "s", in.simulateS)
	res.set("dataset.encode_s", "s", in.encodeS)
	res.set("flowwire.wire_bytes_per_record", "B", float64(in.wireBytes)/records)
	res.set("flowwire.template_pkt_ratio", "ratio", float64(in.templates)/float64(len(in.dgrams)))

	// udp: the floor — a bare socket of our own, one datagram at a time.
	if err := in.traceUDPFloor(tr, root, res); err != nil {
		return err
	}

	// flowwire: Registry.Decode on every datagram.
	reg, err := flowwire.NewRegistry()
	if err != nil {
		return err
	}
	var recs []flowwire.Record
	ph := phase("flowwire.decode-pass")
	decodeID := tr.nameID("flowwire.decode")
	mallocs, _, _ := memDelta(func() {
		for _, d := range in.dgrams {
			sp := tr.begin(decodeID, ph, int(d.bin))
			_, recs, err = reg.Decode(d.data, recs[:0])
			tr.end(sp)
			if err != nil {
				return
			}
		}
	})
	tr.end(ph)
	if err != nil {
		return fmt.Errorf("traced decode: %w", err)
	}
	decodeNs := sum(tr.durationsNs("flowwire.decode")) / records
	res.set("flowwire.decode_ns_per_record", "ns", decodeNs)
	res.set("flowwire.decode_allocs_per_pkt", "count", float64(mallocs)/float64(len(in.dgrams)))

	// server: the daemon driven in process, on the synchronous path (the
	// only one a single goroutine can drive call by call).
	syncIn := *in
	syncIn.w.receivers, syncIn.w.shards, syncIn.w.conns = 1, 1, 1
	if w.receivers > 1 || w.shards > 1 {
		syncIn.w.grace = 1
	}
	syncIn.snapshotPath = filepath.Join(o.outDir, "ckpt-"+w.name+"-traced.nwcp")
	defer os.Remove(syncIn.snapshotPath)
	coldS, err := syncIn.coldStart()
	if err != nil {
		return err
	}
	res.set("server.new_cold_ms", "ms", coldS*1e3)
	ingestNs, err := syncIn.traceNoClose(tr, root, res)
	if err != nil {
		return err
	}
	res.set("server.bin_self_ns_per_record", "ns", ingestNs-decodeNs)
	closeSelfUs, err := syncIn.traceClosing(tr, root, res, ingestNs)
	if err != nil {
		return err
	}

	// stream: the concurrent pipeline replaying the same bins.
	ph = phase("stream.replay-pass")
	var replayErr error
	mallocs, _, _ = memDelta(func() {
		det, err := in.run.NewStreamDetector(netwide.DefaultDetectOptions(), in.stream)
		if err != nil {
			replayErr = err
			return
		}
		sp := tr.begin(tr.nameID("stream.replay"), ph, -1)
		_, replayErr = det.Replay(0, w.bins)
		tr.end(sp)
	})
	tr.end(ph)
	if replayErr != nil {
		return fmt.Errorf("traced replay: %w", replayErr)
	}
	res.set("stream.replay_us_per_bin", "us", usOf(sum(tr.durationsNs("stream.replay")))/bins)
	res.set("stream.replay_allocs_per_bin", "count", float64(mallocs)/bins)

	perBinUs, err := in.traceDetection(tr, root, res)
	if err != nil {
		return err
	}

	// netwide: the offline pipeline, its two calls timed apart.
	ph = phase("netwide.batch")
	sp := tr.begin(tr.nameID("netwide.detect"), ph, -1)
	err = in.run.Detect(netwide.DefaultDetectOptions())
	tr.end(sp)
	if err != nil {
		return err
	}
	res.set("netwide.detect_s", "s", tr.durNs(sp)/1e9)
	sp = tr.begin(tr.nameID("netwide.characterize"), ph, -1)
	anoms := in.run.Characterize()
	tr.end(sp)
	tr.end(ph)
	res.set("netwide.characterize_s", "s", tr.durNs(sp)/1e9)
	res.Problems = append(res.Problems, in.checkBatch(anoms)...)
	tr.end(root)

	// The wire passes, on the workload's own configuration.
	in.snapshotPath = filepath.Join(o.outDir, "ckpt-"+w.name+".nwcp")
	defer os.Remove(in.snapshotPath)
	if _, err := in.coldStart(); err != nil {
		return err
	}
	var walls, drains []float64
	var g gauges
	var last *passResult
	for i := 0; i < tracedClosedLoopPasses; i++ {
		p, err := in.runPass(passOpts{dropEvery: o.dropEvery})
		if err != nil {
			return err
		}
		res.absorb(fmt.Sprintf("closed-loop pass %d", i), p)
		walls, drains = append(walls, p.wallS), append(drains, p.drainS*1e3)
		g.queueLenMax = max(g.queueLenMax, p.gauges.queueLenMax)
		g.mergeQueueLenMax = max(g.mergeQueueLenMax, p.gauges.mergeQueueLenMax)
		last = p
	}
	res.setMedian("server.drain_ms", "ms", drains)
	res.set("server.queue_len_max", "count", float64(g.queueLenMax))
	res.set("server.merge_queue_len_max", "count", float64(g.mergeQueueLenMax))
	var shardRecs, recvPkts []uint64
	for _, sh := range last.stats.Shards {
		shardRecs = append(shardRecs, sh.Records)
	}
	for _, r := range last.stats.Receivers {
		recvPkts = append(recvPkts, r.Packets)
	}
	res.set("server.shard_skew", "ratio", skew(shardRecs))
	res.set("server.recv_skew", "ratio", skew(recvPkts))

	p, err := in.runPass(passOpts{paced: true, dropEvery: o.dropEvery})
	if err != nil {
		return err
	}
	res.absorb("paced pass", p)
	res.Samples["gen.late_ms"] = summarize(p.lateMs)
	res.set("gen.late_ms_p99", "ms", percentile(sorted(p.lateMs), 99))
	res.set("gen.poll_share", "ratio", p.pollShare)

	// The budget: what one record and one bin cost when every layer runs
	// alone, against what the closed loop took with them overlapped.
	perRecordNs := res.Metrics["udp.recv_ns_per_pkt"].Value*float64(len(in.dgrams))/records + ingestNs
	perBinUs += closeSelfUs
	res.set("budget.per_record_ns", "ns", perRecordNs)
	res.set("budget.per_bin_us", "us", perBinUs)
	res.set("budget.serial_over_wall", "ratio", (perRecordNs*records/1e9+perBinUs*bins/1e6)/median(walls))

	return tr.write(filepath.Join(o.outDir, "trace-"+w.name+".json"), w.name, o.seed)
}

// traceUDPFloor times ReadFromUDP on a socket the bench owns: each
// datagram is written to it and read back on the same goroutine, so the
// span holds the receive alone.
func (in *inputs) traceUDPFloor(tr *tracer, root int32, res *result) error {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer sink.Close()
	src, err := net.DialUDP("udp", nil, sink.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return err
	}
	defer src.Close()
	ph := tr.begin(tr.nameID("udp.recv-pass"), root, -1)
	recvID := tr.nameID("udp.recv")
	buf := make([]byte, 4096)
	n := min(udpFloorDatagrams, len(in.dgrams))
	for _, d := range in.dgrams[:n] {
		if _, err := src.Write(d.data); err != nil {
			return err
		}
		sp := tr.begin(recvID, ph, int(d.bin))
		_, _, err := sink.ReadFromUDP(buf)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	tr.end(ph)
	recv := tr.durationsNs("udp.recv")
	res.Samples["udp.recv_ns_per_pkt"] = summarize(recv)
	res.set("udp.recv_ns_per_pkt", "ns", median(recv))
	return nil
}

// startInProcess restores a daemon from the pristine snapshot without
// binding sockets: IngestPacket is its only input.
func (in *inputs) startInProcess(cfg server.Config) (*server.Server, error) {
	if err := os.WriteFile(in.snapshotPath, in.pristine, 0o644); err != nil {
		return nil, err
	}
	srv, err := server.New(in.run, cfg)
	if err != nil {
		return nil, err
	}
	if st := srv.Stats(); !st.Restored {
		srv.Kill()
		return nil, fmt.Errorf("traced daemon did not start from the pristine snapshot: %s", st.RestoreErr)
	}
	return srv, nil
}

// traceNoClose feeds the leading bins to a daemon whose grace is wider
// than the range, so that no call closes a bin and nothing is scored:
// every span is decode + sequence + resolve + accumulate and nothing else.
// It returns the ingest cost per record in ns.
func (in *inputs) traceNoClose(tr *tracer, root int32, res *result) (float64, error) {
	cfg := in.serverConfig()
	cfg.Grace, cfg.CheckpointEvery = noCloseBins+1, 1<<30
	srv, err := in.startInProcess(cfg)
	if err != nil {
		return 0, err
	}
	defer srv.Kill()
	n := len(in.dgrams)
	if in.w.bins > noCloseBins {
		n = in.lastOfBin[noCloseBins-1] + 1
	}
	ph := tr.begin(tr.nameID("server.ingest-noclose-pass"), root, -1)
	ingestID := tr.nameID("server.ingest")
	fed := 0
	mallocs, _, _ := memDelta(func() {
		for _, d := range in.dgrams[:n] {
			sp := tr.begin(ingestID, ph, int(d.bin))
			srv.IngestPacket(d.data)
			tr.end(sp)
			fed += int(d.records)
		}
	})
	tr.end(ph)
	if st := srv.Stats(); int(st.Records) != fed || st.BinsClosed != 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("no-close pass: accepted %d of %d records and closed %d bins", st.Records, fed, st.BinsClosed))
	}
	perRecord := sum(tr.durationsNs("server.ingest")) / float64(fed)
	res.set("server.ingest_ns_per_record", "ns", perRecord)
	res.set("server.ingest_allocs_per_pkt", "count", float64(mallocs)/float64(n))
	return perRecord, nil
}

// traceClosing feeds every datagram to a daemon on the workload's grace
// and snapshot cadence. The first datagram of a new bin is the call that
// closes one (seal + submit + inline snapshot); its cost beyond an
// ordinary datagram's is the close's self time, returned in us. The same
// daemon then serves the checkpoint layer's spans before it is drained.
func (in *inputs) traceClosing(tr *tracer, root int32, res *result, ingestNsPerRecord float64) (float64, error) {
	srv, err := in.startInProcess(in.serverConfig())
	if err != nil {
		return 0, err
	}
	ph := tr.begin(tr.nameID("server.ingest-pass"), root, -1)
	ingestID, closeID := tr.nameID("server.ingest-open"), tr.nameID("server.close_bin")
	var closeRecords float64
	prevBin := -1
	mallocs, allocBytes, gcs := memDelta(func() {
		for _, d := range in.dgrams {
			id := ingestID
			if int(d.bin) != prevBin && prevBin >= 0 {
				id = closeID
				closeRecords += float64(d.records)
			}
			prevBin = int(d.bin)
			sp := tr.begin(id, ph, int(d.bin))
			srv.IngestPacket(d.data)
			tr.end(sp)
		}
	})
	tr.end(ph)
	records := float64(in.records)
	res.set("proc.alloc_bytes_per_record", "B", float64(allocBytes)/records)
	res.set("proc.allocs_per_record", "count", float64(mallocs)/records)
	res.set("proc.gc_cycles", "count", float64(gcs))
	res.set("checkpoint.written", "count", float64(srv.Stats().CheckpointsWritten))
	closes := tr.durationsNs("server.close_bin")
	res.Samples["server.close_bin_us"] = summarize(closes)
	asc := sorted(closes)
	res.set("server.close_bin_us_p50", "us", usOf(percentile(asc, 50)))
	res.set("server.close_bin_us_p90", "us", usOf(percentile(asc, 90)))
	closeSelfUs := 0.0
	if len(closes) > 0 {
		closeSelfUs = usOf(percentile(asc, 50) - ingestNsPerRecord*closeRecords/float64(len(closes)))
	}

	if err := in.traceCheckpoint(tr, root, res, srv); err != nil {
		srv.Kill()
		return 0, err
	}
	sp := tr.begin(tr.nameID("server.drain"), root, -1)
	err = srv.Drain(context.Background())
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("traced drain: %w", err)
	}
	res.absorb("traced in-process pass", in.checked(srv))
	return closeSelfUs, nil
}

// checked applies the pass output checks to an in-process daemon.
func (in *inputs) checked(srv *server.Server) *passResult {
	p := &passResult{offered: in.records, stats: srv.Stats()}
	p.accepted = int(p.stats.Records)
	in.check(p, srv.Anomalies(), len(in.dgrams))
	return p
}

// traceCheckpoint times the snapshot path from outside: whole snapshots
// through the idle daemon, then the file layer's encode, write and read on
// the state the last one left on disk.
func (in *inputs) traceCheckpoint(tr *tracer, root int32, res *result, srv *server.Server) error {
	ph := tr.begin(tr.nameID("checkpoint.pass"), root, -1)
	defer tr.end(ph)
	snapID := tr.nameID("checkpoint.snapshot")
	for i := 0; i < snapshotReps; i++ {
		sp := tr.begin(snapID, ph, -1)
		err := srv.CheckpointNow()
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("CheckpointNow: %w", err)
		}
	}
	snaps := tr.durationsNs("checkpoint.snapshot")
	res.Samples["checkpoint.snapshot_ms"] = summarize(snaps)
	asc := sorted(snaps)
	res.set("checkpoint.snapshot_ms_p50", "ms", msOf(percentile(asc, 50)))
	res.set("checkpoint.snapshot_ms_p90", "ms", msOf(percentile(asc, 90)))

	fi, err := os.Stat(in.snapshotPath)
	if err != nil {
		return err
	}
	res.set("checkpoint.bytes", "B", float64(fi.Size()))
	// Read, encode and write take turns, so that a slow spell of the host
	// falls on all three alike; fsync is each write minus its own encode.
	var readNs, encodeNs, syncNs []float64
	timed := func(name string, fn func() error) (float64, error) {
		sp := tr.begin(tr.nameID(name), ph, -1)
		err := fn()
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		return tr.durNs(sp), nil
	}
	scratch := in.snapshotPath + ".copy"
	defer os.Remove(scratch)
	for i := 0; i < fileReps; i++ {
		var st *checkpoint.State
		rd, err := timed("checkpoint.read", func() (err error) {
			st, err = checkpoint.ReadFile(in.snapshotPath)
			return err
		})
		if err != nil {
			return err
		}
		enc, err := timed("checkpoint.encode", func() error { return checkpoint.Write(io.Discard, st) })
		if err != nil {
			return err
		}
		wr, err := timed("checkpoint.write_file", func() error { return checkpoint.WriteFile(scratch, st, nil) })
		if err != nil {
			return err
		}
		readNs, encodeNs, syncNs = append(readNs, rd), append(encodeNs, enc), append(syncNs, wr-enc)
	}
	readMs, encodeMs, syncMs := msOf(median(readNs)), msOf(median(encodeNs)), msOf(median(syncNs))
	res.set("checkpoint.read_ms", "ms", readMs)
	res.set("checkpoint.encode_ms", "ms", encodeMs)
	res.set("checkpoint.fsync_ms", "ms", syncMs)
	return nil
}

// traceDetection drives the three measures' matrices through engine,
// mat, identify, events and classify one call at a time, the way the
// stream pipeline chains them, and returns the per-bin cost in us of that
// chain run serially.
func (in *inputs) traceDetection(tr *tracer, root int32, res *result) (float64, error) {
	ds := in.run.Dataset()
	bins := in.w.bins
	ph := tr.begin(tr.nameID("detection-pass"), root, -1)
	defer tr.end(ph)

	fitID := tr.nameID("engine.fit")
	models := make([]*engine.Model, dataset.NumMeasures)
	for m := range models {
		sp := tr.begin(fitID, ph, -1)
		model, err := engine.Fit(ds.Matrix(dataset.Measure(m)), engine.DefaultOptions())
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("engine.Fit: %w", err)
		}
		models[m] = model
	}
	res.setMedian("engine.fit_ms", "ms", scale(tr.durationsNs("engine.fit"), 1e-6))
	X := ds.Matrix(dataset.Bytes)
	sp := tr.begin(tr.nameID("engine.refit_warm"), ph, -1)
	_, err := models[dataset.Bytes].Refit(X)
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("engine.Refit: %w", err)
	}
	res.set("engine.refit_warm_ms", "ms", msOf(tr.durNs(sp)))

	// mat: the fit engine.Fit chose for this width, and its two kernels.
	n, p := X.Rows(), X.Cols()
	sp = tr.begin(tr.nameID("mat.pca_fit"), ph, -1)
	if p <= engine.MaxFullPCAVars && n > p {
		_, err = mat.FitPCA(X, true)
	} else {
		_, err = mat.FitPCAPartial(X, min(2*engine.DefaultOptions().K+8, p), true)
	}
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("mat PCA fit: %w", err)
	}
	res.set("mat.pca_fit_ms", "ms", msOf(tr.durNs(sp)))
	sp = tr.begin(tr.nameID("mat.covariance"), ph, -1)
	cov := X.Covariance()
	tr.end(sp)
	res.set("mat.covariance_ms", "ms", msOf(tr.durNs(sp)))
	// The p x p eigendecomposition is only on the pipeline's path where
	// the full fit is (p <= 512); at geant's width it would cost seconds
	// the pipeline never spends, and is reported as 0.
	res.set("mat.symeigen_ms", "ms", 0)
	if p <= engine.MaxFullPCAVars {
		sp = tr.begin(tr.nameID("mat.symeigen"), ph, -1)
		_, _, err = mat.SymEigen(cov)
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("mat.SymEigen: %w", err)
		}
		res.set("mat.symeigen_ms", "ms", msOf(tr.durNs(sp)))
	}

	// Score in the daemon's batches of 16, attribute every alarmed bin,
	// aggregate bin by bin, classify what closes.
	scoreID, attrID := tr.nameID("engine.score_batch"), tr.nameID("identify.attribute")
	dets := make([][]events.Detection, bins)
	alarms := 0
	for m, model := range models {
		Xm := ds.Matrix(dataset.Measure(m))
		var pts []engine.Point
		for from := 0; from < bins; from += in.stream.BatchSize {
			to := min(from+in.stream.BatchSize, bins)
			rows := make([][]float64, 0, to-from)
			for b := from; b < to; b++ {
				rows = append(rows, Xm.RowView(b))
			}
			sp := tr.begin(scoreID, ph, from)
			pts, err = model.ScoreBatch(rows, pts[:0])
			tr.end(sp)
			if err != nil {
				return 0, fmt.Errorf("ScoreBatch: %w", err)
			}
			for i, pt := range pts {
				if !pt.SPEAlarm && !pt.T2Alarm {
					continue
				}
				bin := from + i
				sp := tr.begin(attrID, ph, bin)
				atts, err := identify.AttributeLive(model, bin, rows[i], pt)
				tr.end(sp)
				if err != nil {
					return 0, fmt.Errorf("AttributeLive: %w", err)
				}
				alarms += len(atts)
				for _, att := range atts {
					dets[bin] = append(dets[bin], events.Detection{Measure: dataset.Measure(m), Bin: bin, ODs: att.ODs, Residuals: att.Residuals})
				}
			}
		}
	}
	scoreUs := usOf(sum(tr.durationsNs("engine.score_batch"))) / float64(bins) / float64(len(models))
	res.set("engine.score_us_per_bin", "us", scoreUs)
	attrNs := tr.durationsNs("identify.attribute")
	res.Samples["identify.attribute_us"] = summarize(scale(attrNs, 1e-3))
	res.set("identify.attribute_us_per_alarm", "us", usOf(sum(attrNs))/float64(max(alarms, 1)))
	res.set("identify.alarms", "count", float64(alarms))

	aggID, classID := tr.nameID("events.aggregate"), tr.nameID("classify.classify")
	agg, cl := events.NewAggregator(), classify.New(ds)
	nEvents := 0
	classifyAll := func(closed []events.Event, bin int) {
		for _, ev := range closed {
			sp := tr.begin(classID, ph, bin)
			cl.Classify(ev)
			tr.end(sp)
			nEvents++
		}
	}
	for bin := 0; bin < bins; bin++ {
		sp := tr.begin(aggID, ph, bin)
		closed := agg.Add(bin, dets[bin])
		tr.end(sp)
		classifyAll(closed, bin)
	}
	sp = tr.begin(aggID, ph, bins)
	closed := agg.Flush()
	tr.end(sp)
	classifyAll(closed, bins)
	aggUs := usOf(sum(tr.durationsNs("events.aggregate"))) / float64(bins)
	classNs := tr.durationsNs("classify.classify")
	res.set("events.aggregate_us_per_bin", "us", aggUs)
	res.set("events.events", "count", float64(nEvents))
	res.Samples["classify.classify_us"] = summarize(scale(classNs, 1e-3))
	res.set("classify.classify_us_per_event", "us", usOf(sum(classNs))/float64(max(nEvents, 1)))
	res.set("classify.events", "count", float64(nEvents))

	// The incremental tracker, one bin at a time on the byte measure.
	upd, err := engine.NewUpdater(engine.UpdaterIncremental, models[dataset.Bytes], engine.UpdaterConfig{})
	if err != nil {
		return 0, fmt.Errorf("engine.NewUpdater: %w", err)
	}
	updID := tr.nameID("engine.update_incremental")
	for bin := 0; bin < min(updateReps, bins); bin++ {
		sp := tr.begin(updID, ph, bin)
		_, err := upd.Observe(X.RowView(bin))
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("incremental Observe: %w", err)
		}
	}
	updNs := tr.durationsNs("engine.update_incremental")
	res.Samples["engine.update_incremental_us"] = summarize(scale(updNs, 1e-3))
	updateUs := usOf(median(updNs))
	res.set("engine.update_incremental_us", "us", updateUs)

	lanes := float64(len(models))
	perBinUs := lanes*scoreUs + usOf(sum(attrNs))/float64(bins) + aggUs + usOf(sum(classNs))/float64(bins)
	if in.w.updater == string(engine.UpdaterIncremental) {
		perBinUs += lanes * updateUs
	}
	return perBinUs, nil
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
