package server

import (
	"fmt"
	"net"
	"time"

	"netwide/internal/dataset"
	"netwide/internal/flowwire"
	"netwide/internal/topology"
	"netwide/internal/traffic"
)

// ReplayConfig drives one dataset replay over UDP.
type ReplayConfig struct {
	// Addr is the collector's UDP address.
	Addr string
	// Format is the wire format to replay in (the zero value means
	// NetFlow v5). Any saved scenario replays in any supported format;
	// the collector normalizes them all to the same records.
	Format flowwire.Format
	// From and To bound the replayed bins [From, To); To <= 0 means the
	// whole dataset.
	From, To int
	// PacketsPerSecond paces the send (0 = as fast as the socket takes
	// them). Pacing matters on loopback too: an unpaced replay can overrun
	// the collector's socket buffer, and UDP loss breaks replay parity.
	PacketsPerSecond int
	// Conns sends the replay from that many source sockets (default 1):
	// several exporters into the collector's one socket at once. Each
	// export engine's packets stick to one socket, so every engine's
	// sequence stream stays in order on its one path.
	Conns int
	// Epoch is the Unix time stamped into bin From's packet headers (bin b
	// is stamped Epoch + (b)*300); it must match the collector's Epoch.
	// sFlow datagrams carry no wall clock: there the timestamp rides the
	// agent-uptime field in milliseconds, which caps Epoch+To*300 at
	// 2^32/1000 seconds (~49 days' worth) — use Epoch 0 for sFlow replays.
	Epoch uint32
}

// ReplayStats reports what one replay put on the wire.
type ReplayStats struct {
	Bins    int
	Packets int
	Records int
	Bytes   int64
}

// Replay regenerates the resolved flow records of bins [From, To) — the
// exact records the generator folded into the dataset's matrices — and
// exports them over UDP in cfg.Format (NetFlow v5 by default), one export
// engine per origin PoP, packets stamped with the bin's timestamp.
// Replaying into an ingest Server whose detector was trained on the same
// dataset therefore reconstructs the generator's matrices bit for bit on
// the collector side, in every supported format: any scenario the scenario
// engine can generate becomes a live load test.
func Replay(ds *dataset.Dataset, cfg ReplayConfig) (ReplayStats, error) {
	var st ReplayStats
	if cfg.To <= 0 || cfg.To > ds.Bins {
		cfg.To = ds.Bins
	}
	if cfg.From < 0 || cfg.From >= cfg.To {
		return st, fmt.Errorf("server: replay range [%d,%d) outside dataset of %d bins", cfg.From, cfg.To, ds.Bins)
	}
	exps, err := newBinExporters(ds, cfg.Format)
	if err != nil {
		return st, err
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	conns := make([]*net.UDPConn, 0, cfg.Conns)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	raddr, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return st, fmt.Errorf("server: replay addr: %w", err)
	}
	for i := 0; i < cfg.Conns; i++ {
		c, err := net.DialUDP("udp", nil, raddr)
		if err != nil {
			return st, fmt.Errorf("server: replay dial (conn %d/%d): %w", i+1, cfg.Conns, err)
		}
		conns = append(conns, c)
	}

	pace := newPacer(cfg.PacketsPerSecond)
	for bin := cfg.From; bin < cfg.To; bin++ {
		pkts, records, err := exps.encodeBin(bin, cfg.Epoch)
		if err != nil {
			return st, err
		}
		for _, pkt := range pkts {
			pace.wait()
			if _, err := conns[int(pkt.engine)%len(conns)].Write(pkt.data); err != nil {
				return st, fmt.Errorf("server: replay send bin %d: %w", bin, err)
			}
			st.Packets++
			st.Bytes += int64(len(pkt.data))
		}
		st.Records += records
		st.Bins++
	}
	return st, nil
}

// binExporters regenerates and encodes one bin at a time: one export
// engine per origin PoP, sequence counters running across bins just like a
// real router's export engine. Shared by Replay and the ingest benchmark
// (which feeds the packets straight to IngestPacket).
type binExporters struct {
	ds   *dataset.Dataset
	exps []flowwire.Exporter
	// binTime is read by the exporter clocks when packets flush.
	binTime uint32
}

func newBinExporters(ds *dataset.Dataset, format flowwire.Format) (*binExporters, error) {
	if format == flowwire.FormatUnknown {
		format = flowwire.FormatNetFlowV5
	}
	be := &binExporters{ds: ds}
	rate := uint32(1 / ds.Cfg.SamplingRate)
	be.exps = make([]flowwire.Exporter, ds.Top.NumPoPs())
	for i := range be.exps {
		exp, err := flowwire.NewExporter(format, uint32(i), rate, func() (uint32, uint32) {
			// sFlow derives its timestamp from the uptime field; the
			// exporter handles that mapping, so one clock serves all four.
			return be.binTime, be.binTime
		})
		if err != nil {
			return nil, fmt.Errorf("server: replay exporter: %w", err)
		}
		be.exps[i] = exp
	}
	return be, nil
}

// replayPacket is one encoded export packet tagged with the engine that
// produced it, so Replay can pin each engine's sequence stream to one
// source socket.
type replayPacket struct {
	engine uint32
	data   []byte
}

// encodeBin regenerates bin's resolved records across every OD pair and
// returns them encoded as export packets (stamped epoch + bin*300) tagged
// by engine, plus the record count. Every exporter flushes at the end of
// the bin, so no record ever straddles a bin boundary; the returned
// packets own their bytes (Drain detaches the arena).
func (be *binExporters) encodeBin(bin int, epoch uint32) ([]replayPacket, int, error) {
	be.binTime = epoch + uint32(bin)*traffic.BinSeconds
	records := 0
	var addErr error
	for i := 0; i < be.ds.Top.NumODPairs(); i++ {
		od := be.ds.Top.ODAt(i)
		exp := be.exps[od.Origin]
		be.ds.ForEachResolvedRecord(od, bin, func(_ topology.ODPair, rec flowwire.Flow) {
			if addErr != nil {
				return
			}
			if err := exp.Add(rec); err != nil {
				addErr = err
				return
			}
			records++
		})
		if addErr != nil {
			return nil, 0, fmt.Errorf("server: replay bin %d: %w", bin, addErr)
		}
	}
	var pkts []replayPacket
	for i, exp := range be.exps {
		if err := exp.Flush(); err != nil {
			return nil, 0, fmt.Errorf("server: replay flush bin %d: %w", bin, err)
		}
		for _, data := range exp.Drain() {
			pkts = append(pkts, replayPacket{engine: uint32(i), data: data})
		}
	}
	return pkts, records, nil
}

// pacer rations packet sends to a fixed rate with absolute scheduling, so
// sleep granularity never accumulates drift.
type pacer struct {
	interval time.Duration
	start    time.Time
	sent     int64
}

func newPacer(pps int) *pacer {
	p := &pacer{}
	if pps > 0 {
		p.interval = time.Second / time.Duration(pps)
		p.start = time.Now()
	}
	return p
}

func (p *pacer) wait() {
	if p.interval == 0 {
		return
	}
	target := p.start.Add(time.Duration(p.sent) * p.interval)
	if d := time.Until(target); d > 0 {
		time.Sleep(d)
	}
	p.sent++
}
