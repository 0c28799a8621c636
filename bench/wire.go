package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"netwide"
	"netwide/internal/server"
)

// passOpts selects how one wire pass is driven.
type passOpts struct {
	// paced sends open loop on the workload's offered schedule and times
	// alarm latency; otherwise the pass is closed loop.
	paced bool
	// dropEvery, when > 0, is the negative control: every dropEvery-th
	// datagram is withheld from the wire.
	dropEvery int
}

// drops reports whether the negative control withholds datagram i.
func (o passOpts) drops(i int) bool { return o.dropEvery > 0 && (i+1)%o.dropEvery == 0 }

// gauges are the queue and skew readings taken from every Stats() the
// sender already makes.
type gauges struct {
	queueLenMax, mergeQueueLenMax int
}

func (g *gauges) observe(st *server.Stats) {
	for _, sh := range st.Shards {
		g.queueLenMax = max(g.queueLenMax, sh.QueueLen)
	}
	g.mergeQueueLenMax = max(g.mergeQueueLenMax, st.MergeQueueLen)
}

// skew is the largest share over the mean share (1 = perfectly even).
func skew(parts []uint64) float64 {
	var sum, top uint64
	for _, p := range parts {
		sum += p
		top = max(top, p)
	}
	if sum == 0 {
		return 0
	}
	return float64(top) * float64(len(parts)) / float64(sum)
}

// passResult is what one pass measured and what its output checks found.
type passResult struct {
	newS   float64 // server.New + Start on the pristine snapshot
	wallS  float64 // first datagram on the wire -> Drain returned
	drainS float64
	// binStart[b] is when a closed-loop sender was about to write bin b's
	// first datagram.
	binStart []time.Duration

	offered, accepted int // flow records
	failed            int
	problems          []string
	stats             server.Stats
	gauges            gauges

	// Paced passes only.
	latencyMs []float64 // one per alarmed bin, in verdict order
	lateMs    []float64 // generator lateness, one per datagram
	pollShare float64   // share of the sender's time spent inside Stats()
}

func (r *passResult) recordsPerS() float64 { return float64(r.accepted) / r.wallS }

// bestWindowRate is the highest rate, in records/s, a closed-loop pass
// held over any rateWindowBins consecutive bins; 0 for a pass too short to
// have one. recordsBefore[b] is how many records bins [0, b) carry.
func bestWindowRate(binStart []time.Duration, recordsBefore []int) float64 {
	best := 0.0
	for b := rateWindowBins; b < len(binStart); b++ {
		if dt := (binStart[b] - binStart[b-rateWindowBins]).Seconds(); dt > 0 {
			best = max(best, float64(recordsBefore[b]-recordsBefore[b-rateWindowBins])/dt)
		}
	}
	return best
}

// serverConfig is the daemon every pass runs. CheckpointPath is always
// set, because every pass starts from the pristine snapshot (see
// coldStart); only the checkpointing workload snapshots on every closed
// bin — the others get a cadence no run reaches, so that their one
// snapshot is the drain's.
func (in *inputs) serverConfig() server.Config {
	every := 1 << 30
	if in.w.checkpointEveryBin {
		every = 1
	}
	return server.Config{
		Grace:           in.w.grace,
		Receivers:       in.w.receivers,
		Shards:          in.w.shards,
		CheckpointPath:  in.snapshotPath,
		CheckpointEvery: every,
		Detect:          netwide.DefaultDetectOptions(),
		Stream:          in.stream,
	}
}

// startDaemon is server.New + Start on the workload's configuration, timed:
// a cold start when no snapshot lies at snapshotPath, a restore otherwise.
func (in *inputs) startDaemon() (*server.Server, float64, error) {
	t0 := time.Now()
	srv, err := server.New(in.run, in.serverConfig())
	if err != nil {
		return nil, 0, fmt.Errorf("server.New: %w", err)
	}
	if err := srv.Start(); err != nil {
		srv.Kill()
		return nil, 0, fmt.Errorf("server.Start: %w", err)
	}
	return srv, time.Since(t0).Seconds(), nil
}

// coldStart builds the run's one cold daemon — the only place besides the
// reference where the models are fitted — snapshots it before it has seen
// a datagram, and kills it. Every pass then starts by restoring that
// pristine snapshot: same models, empty state, milliseconds instead of
// the seconds a geant fit costs, which is what lets a run afford enough
// passes for a steady median. It returns the cold New+Start time.
func (in *inputs) coldStart() (float64, error) {
	if err := os.Remove(in.snapshotPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, err
	}
	srv, coldS, err := in.startDaemon()
	if err != nil {
		return 0, err
	}
	err = srv.CheckpointNow()
	srv.Kill()
	if err != nil {
		return 0, fmt.Errorf("pristine snapshot: %w", err)
	}
	in.pristine, err = os.ReadFile(in.snapshotPath)
	return coldS, err
}

// sender owns the source sockets; write is the whole per-datagram send
// path and must not allocate.
type sender struct {
	conns []*net.UDPConn
}

func dial(in *inputs, addr net.Addr) (*sender, error) {
	raddr, ok := addr.(*net.UDPAddr)
	if !ok {
		return nil, fmt.Errorf("server listens on %v, not UDP", addr)
	}
	s := &sender{}
	for i := 0; i < in.w.conns; i++ {
		c, err := net.DialUDP("udp", nil, raddr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, c)
	}
	return s, nil
}

func (s *sender) write(d datagram) error {
	_, err := s.conns[d.conn].Write(d.data)
	return err
}

func (s *sender) close() {
	for _, c := range s.conns {
		c.Close()
	}
}

// dueOffsets is the paced schedule: datagram i is due once the records
// through it have been produced at `offered` records per second.
func dueOffsets(dgrams []datagram, offered float64) []time.Duration {
	due := make([]time.Duration, len(dgrams))
	cum := 0
	for i, d := range dgrams {
		cum += int(d.records)
		due[i] = time.Duration(float64(cum) / offered * float64(time.Second))
	}
	return due
}

// runPass starts a fresh daemon, drives the workload's datagrams through
// it over loopback UDP, drains it, and checks every output.
func (in *inputs) runPass(o passOpts) (*passResult, error) {
	res := &passResult{offered: in.records}
	if err := os.WriteFile(in.snapshotPath, in.pristine, 0o644); err != nil {
		return nil, err
	}
	srv, newS, err := in.startDaemon()
	if err != nil {
		return nil, err
	}
	res.newS = newS
	if st := srv.Stats(); !st.Restored || st.Packets != 0 {
		srv.Kill()
		return nil, fmt.Errorf("pass did not start from the pristine snapshot (restored=%v packets=%d): %s", st.Restored, st.Packets, st.RestoreErr)
	}
	snd, err := dial(in, srv.UDPAddr())
	if err != nil {
		srv.Kill()
		return nil, err
	}
	defer snd.close()

	send := in.sendClosedLoop
	if o.paced {
		send = in.sendPaced
	}
	sent, start, err := send(snd, srv, o, res)
	if err != nil {
		srv.Kill()
		return nil, err
	}
	res.wallS = time.Since(start).Seconds()
	res.stats = srv.Stats()
	res.accepted = int(res.stats.Records)
	in.check(res, srv.Anomalies(), sent)
	return res, nil
}

// awaitPackets polls until the daemon has counted `sent` datagrams — Drain
// closes the sockets, and whatever still sits in a socket buffer then is
// lost — or the counter stalls.
func awaitPackets(read func() server.Stats, sent int) {
	last, lastMove := uint64(0), time.Now()
	for {
		st := read()
		if st.Packets >= uint64(sent) {
			return
		}
		if st.Packets != last {
			last, lastMove = st.Packets, time.Now()
		} else if time.Since(lastMove) > stallTimeout {
			return // the output checks report the shortfall
		}
		time.Sleep(windowFullSleep)
	}
}

func (in *inputs) sendClosedLoop(snd *sender, srv *server.Server, o passOpts, res *passResult) (int, time.Time, error) {
	// counted and lastClosed are the daemon's packet counter and highest
	// closed bin as last read; writtenOff the datagrams given up on after
	// a stall.
	sent, counted, writtenOff, lastClosed := 0, 0, 0, -1
	binsAhead := in.w.grace + sendBinsWindow
	res.binStart = make([]time.Duration, 0, in.w.bins)
	start := time.Now()
	for i, d := range in.dgrams {
		if int(d.bin) == len(res.binStart) {
			res.binStart = append(res.binStart, time.Since(start))
		}
		if o.drops(i) {
			continue
		}
		if sent-counted-writtenOff >= sendWindow || int(d.bin)-lastClosed > binsAhead {
			lastMove := time.Now()
			for {
				st := srv.Stats()
				res.gauges.observe(&st)
				if int(st.Packets) != counted || st.LastClosed != lastClosed {
					counted, lastClosed, lastMove = int(st.Packets), st.LastClosed, time.Now()
				}
				if sent-counted-writtenOff < sendWindow && int(d.bin)-lastClosed <= binsAhead {
					break
				}
				if time.Since(lastMove) > stallTimeout {
					// Nothing moves any more: give up on what is outstanding
					// so the pass ends; the output checks count the damage.
					writtenOff, lastClosed = sent-counted, int(d.bin)
					break
				}
				// Sleep rather than spin: the daemon's goroutines need the
				// core more than the sender does, and a full window holds
				// several hundred microseconds of work.
				time.Sleep(windowFullSleep)
			}
		}
		if err := snd.write(d); err != nil {
			return sent, start, fmt.Errorf("send datagram %d: %w", i, err)
		}
		sent++
	}
	awaitPackets(func() server.Stats {
		st := srv.Stats()
		res.gauges.observe(&st)
		return st
	}, sent)
	t0 := time.Now()
	err := srv.Drain(context.Background())
	res.drainS = time.Since(t0).Seconds()
	if err != nil {
		res.problems = append(res.problems, fmt.Sprintf("drain: %v", err))
	}
	return sent, start, nil
}

func (in *inputs) sendPaced(snd *sender, srv *server.Server, o passOpts, res *passResult) (int, time.Time, error) {
	due := dueOffsets(in.dgrams, in.w.offered)
	res.lateMs = make([]float64, 0, len(in.dgrams))
	// seenAt[k] is when the k-th alarmed bin first showed on Stats().
	seenAt := make([]time.Duration, 0, len(in.refAlarmBins)+16)
	var inPoll time.Duration
	start := time.Now()
	poll := func() server.Stats {
		begin := time.Since(start)
		st := srv.Stats()
		end := time.Since(start)
		inPoll += end - begin
		res.gauges.observe(&st)
		for len(seenAt) < st.AlarmBins {
			seenAt = append(seenAt, end)
		}
		return st
	}
	// The generator wakes every pollEvery, sends whatever has come due,
	// looks at the alarm counter and sleeps again. It must not spin: a
	// spinning goroutine keeps its P from ever polling the network, so the
	// daemon's reader would wake late and the socket buffer (~4 ms of
	// traffic at 2M rec/s under this host's rmem_max) would overflow.
	sent := 0
	for i := 0; i < len(in.dgrams); {
		now := time.Since(start)
		for ; i < len(in.dgrams) && due[i] <= now; i++ {
			res.lateMs = append(res.lateMs, float64(now-due[i])/1e6)
			if o.drops(i) {
				continue
			}
			if err := snd.write(in.dgrams[i]); err != nil {
				return sent, start, fmt.Errorf("send datagram %d: %w", i, err)
			}
			sent++
		}
		poll()
		time.Sleep(pollEvery)
	}
	awaitPackets(poll, sent)
	// The tail bins' verdicts surface while the drain flushes them: keep
	// watching until it returns.
	done := make(chan error, 1)
	t0 := time.Now()
	go func() { done <- srv.Drain(context.Background()) }()
	var err error
	for draining := true; draining; {
		select {
		case err = <-done:
			draining = false
		default:
			time.Sleep(pollEvery)
		}
		poll()
	}
	res.drainS = time.Since(t0).Seconds()
	if err != nil {
		res.problems = append(res.problems, fmt.Sprintf("drain: %v", err))
	}
	res.pollShare = float64(inPoll) / float64(time.Since(start))
	for k, at := range seenAt {
		if k >= len(in.refAlarmBins) {
			break // more alarms than the reference: check() reports it
		}
		closeDue := due[in.lastOfBin[in.refAlarmBins[k]]]
		res.latencyMs = append(res.latencyMs, float64(at-closeDue)/1e6)
	}
	return sent, start, nil
}

// check applies the per-pass output checks. failed counts records that
// did not make it into their bin plus ledger entries that differ.
func (in *inputs) check(res *passResult, ledger []netwide.Anomaly, sent int) {
	st := &res.stats
	fail := func(format string, args ...any) {
		res.problems = append(res.problems, fmt.Sprintf(format, args...))
	}
	if int(st.Packets) != sent {
		fail("daemon counted %d datagrams, %d were sent", st.Packets, sent)
	}
	if sent != len(in.dgrams) {
		fail("%d of %d datagrams were put on the wire", sent, len(in.dgrams))
	}
	if res.accepted != in.records {
		fail("daemon accepted %d records, %d were encoded", res.accepted, in.records)
		res.failed += max(in.records-res.accepted, res.accepted-in.records)
	}
	if n := st.LostRecords + st.LateRecords + st.WildRecords + st.BadPackets + st.Duplicates + st.Unroutable; n != 0 {
		fail("lossy pass: lost=%d late=%d wild=%d bad=%d duplicate=%d unroutable=%d",
			st.LostRecords, st.LateRecords, st.WildRecords, st.BadPackets, st.Duplicates, st.Unroutable)
	}
	if st.BinsClosed != in.w.bins {
		fail("daemon closed %d bins, want %d", st.BinsClosed, in.w.bins)
	}
	if st.AlarmBins != len(in.refAlarmBins) {
		fail("daemon alarmed on %d bins, reference on %d", st.AlarmBins, len(in.refAlarmBins))
	}
	if d := ledgerDiff(ledger, in.refAnomalies, false); d != 0 {
		fail("ledger mismatch: %d of %d anomalies differ from the reference (daemon has %d)", d, len(in.refAnomalies), len(ledger))
		res.failed += d
	}
	if st.Err != "" {
		fail("daemon error: %s", st.Err)
	}
}

// timeRestores restarts the daemon restoresPerRound times on the snapshot
// the last drained pass left and times New+Start until Stats() reports the
// restore, checking it resumed after the pass's last bin.
func (in *inputs) timeRestores() (secs []float64, problems []string) {
	for i := 0; i < restoresPerRound; i++ {
		srv, restoreS, err := in.startDaemon()
		if err != nil {
			return secs, append(problems, fmt.Sprintf("restore %d: %v", i, err))
		}
		st := srv.Stats()
		srv.Kill()
		secs = append(secs, restoreS)
		if !st.Restored || st.RestoredBin != in.w.bins-1 {
			// Every further restore reads the same file: one report is enough.
			return secs, append(problems, fmt.Sprintf("restore %d: restored=%v through bin %d, want bin %d (%s)",
				i, st.Restored, st.RestoredBin, in.w.bins-1, st.RestoreErr))
		}
	}
	return secs, problems
}
