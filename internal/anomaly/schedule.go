package anomaly

import (
	"fmt"
	"math/rand/v2"

	"netwide/internal/flow"
	"netwide/internal/ipaddr"
	"netwide/internal/topology"
	"netwide/internal/traffic"
)

// ScheduleConfig controls the random anomaly population of a run. Counts
// are per 4 weeks, matching the paper's measurement period; shorter runs
// scale proportionally. The default counts reproduce the prevalence
// structure of Table 3 (ALPHA most common, then FLASH/SCAN/DOS, with rare
// operational events).
type ScheduleConfig struct {
	Weeks int
	// Per-4-week injected counts per type.
	Alphas, DOSes, DDOSes, Flashes, Scans, Worms, PtMults, Outages, IngressShifts int
	// RefBytes is the mean true byte volume per (OD, bin); intensities are
	// sized relative to it.
	RefBytes float64
	Seed     uint64
}

// MaxCount bounds each per-4-week count of a ScheduleConfig, ten times the
// largest default count (Alphas, 150). Build refuses a count above it:
// schedules reach Build from dataset files, which are untrusted input, and
// every scheduled anomaly costs RNG draws and an injector, so an unbounded
// count buys unbounded start-up work from a file of constant size.
const MaxCount = 1500

// DefaultSchedule sizes the population for a run of the given length over
// the given background generator.
func DefaultSchedule(bg *traffic.Background, weeks int, seed uint64) ScheduleConfig {
	ref := bg.MeanRateBps * traffic.BinSeconds / float64(bg.Top.NumODPairs())
	return ScheduleConfig{
		Weeks:  weeks,
		Alphas: 150, DOSes: 36, DDOSes: 12, Flashes: 70, Scans: 60,
		Worms: 3, PtMults: 4, Outages: 3, IngressShifts: 4,
		RefBytes: ref,
		Seed:     seed,
	}
}

// scaled returns count scaled from a 4-week norm to cfg.Weeks, keeping at
// least 1 if the 4-week count is positive.
func (c ScheduleConfig) scaled(count int) int {
	if count <= 0 {
		return 0
	}
	s := count * c.Weeks / 4
	if s < 1 {
		s = 1
	}
	return s
}

// Build materializes the random anomaly population into a Ledger. All
// randomness derives from cfg.Seed, so a schedule is reproducible.
func Build(cfg ScheduleConfig, top *topology.Topology) (*Ledger, error) {
	if cfg.Weeks <= 0 {
		return nil, fmt.Errorf("anomaly: weeks %d must be positive", cfg.Weeks)
	}
	if cfg.RefBytes <= 0 {
		return nil, fmt.Errorf("anomaly: reference volume %v must be positive", cfg.RefBytes)
	}
	for _, c := range []struct {
		name  string
		count int
	}{
		{"Alphas", cfg.Alphas}, {"DOSes", cfg.DOSes}, {"DDOSes", cfg.DDOSes},
		{"Flashes", cfg.Flashes}, {"Scans", cfg.Scans}, {"Worms", cfg.Worms},
		{"PtMults", cfg.PtMults}, {"Outages", cfg.Outages}, {"IngressShifts", cfg.IngressShifts},
	} {
		if c.count > MaxCount {
			return nil, fmt.Errorf("anomaly: %s count %d exceeds limit %d per 4 weeks", c.name, c.count, MaxCount)
		}
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5EED))
	totalBins := cfg.Weeks * traffic.BinsPerWeek
	led := &Ledger{}
	id := 0
	nextID := func() int { id++; return id }

	numPoPs := top.NumPoPs()
	randomOD := func() topology.ODPair {
		return topology.ODPair{
			Origin: topology.PoP(rng.IntN(numPoPs)),
			Dest:   topology.PoP(rng.IntN(numPoPs)),
		}
	}
	hostAt := func(p topology.PoP, salt uint64) ipaddr.Addr {
		custs := top.CustomersAt(p)
		c := custs[rng.IntN(len(custs))]
		return c.Prefixes[0].Nth(salt)
	}
	randBin := func(maxDur int) int {
		return rng.IntN(totalBins - maxDur)
	}

	// ALPHA flows: bandwidth experiments (ports 5000-5050, 56117) and
	// file-sharing transfers (1412). 1-2 bins.
	alphaPorts := []uint16{flow.PortIperfLo, 5001, 5010, flow.PortIperfHi, flow.PortPathdiag, flow.PortKazaa}
	for i := 0; i < cfg.scaled(cfg.Alphas); i++ {
		od := randomOD()
		dur := 1 + rng.IntN(2)
		vol := cfg.RefBytes * (6 + rng.Float64()*14) // 6-20x an OD-bin
		port := alphaPorts[rng.IntN(len(alphaPorts))]
		led.Injectors = append(led.Injectors, NewAlpha(
			nextID(), od, randBin(dur), dur,
			hostAt(od.Origin, rng.Uint64N(1000)), hostAt(od.Dest, rng.Uint64N(1000)),
			port, vol))
	}

	// DOS attacks: single origin, victim at the destination PoP, ports 0,
	// 110, 113. Up to 4 bins (paper: typically < 20 min).
	dosPorts := []uint16{flow.PortZero, flow.PortZero, flow.PortPOP, flow.PortIdentd}
	for i := 0; i < cfg.scaled(cfg.DOSes); i++ {
		od := randomOD()
		dur := 1 + rng.IntN(4)
		victim := hostAt(od.Dest, rng.Uint64N(100))
		flows := uint64(cfg.RefBytes / 4700 * (8 + rng.Float64()*25))
		pkts := uint64(2 + rng.IntN(12))
		led.Injectors = append(led.Injectors, NewDOS(
			nextID(), []topology.ODPair{od}, randBin(dur), dur,
			victim, dosPorts[rng.IntN(len(dosPorts))], flows, pkts))
	}

	// DDOS: 2-4 origin PoPs, same victim.
	for i := 0; i < cfg.scaled(cfg.DDOSes); i++ {
		dst := topology.PoP(rng.IntN(numPoPs))
		norigins := 2 + rng.IntN(3)
		if norigins >= numPoPs {
			norigins = numPoPs - 1
		}
		seen := map[topology.PoP]bool{dst: true}
		var ods []topology.ODPair
		for len(ods) < norigins {
			o := topology.PoP(rng.IntN(numPoPs))
			if seen[o] {
				continue
			}
			seen[o] = true
			ods = append(ods, topology.ODPair{Origin: o, Dest: dst})
		}
		dur := 1 + rng.IntN(4)
		victim := hostAt(dst, rng.Uint64N(100))
		flows := uint64(cfg.RefBytes / 4700 * (5 + rng.Float64()*12))
		led.Injectors = append(led.Injectors, NewDOS(
			nextID(), ods, randBin(dur), dur,
			victim, flow.PortZero, flows, uint64(2+rng.IntN(10))))
	}

	// Flash crowds: web or DNS service, clients clustered in one customer
	// prefix of the origin PoP.
	for i := 0; i < cfg.scaled(cfg.Flashes); i++ {
		od := randomOD()
		dur := 1 + rng.IntN(3)
		server := hostAt(od.Dest, rng.Uint64N(20))
		port := flow.PortHTTP
		if rng.Float64() < 0.15 {
			port = flow.PortDNS
		}
		clients := top.CustomersAt(od.Origin)
		pfx := clients[rng.IntN(len(clients))].Prefixes[0]
		flows := uint64(cfg.RefBytes / 4700 * (10 + rng.Float64()*25))
		led.Injectors = append(led.Injectors, NewFlash(
			nextID(), od, randBin(dur), dur, server, port, pfx, flows))
	}

	// Scans: mostly network scans for NetBIOS/SQL ports, some port scans.
	scanPorts := []uint16{flow.PortNetBIOS, flow.PortNetBIOS, flow.PortMSSQL, flow.PortDeloder}
	for i := 0; i < cfg.scaled(cfg.Scans); i++ {
		od := randomOD()
		dur := 1 + rng.IntN(2)
		scanner := hostAt(od.Origin, rng.Uint64N(5000))
		flows := uint64(cfg.RefBytes / 4700 * (15 + rng.Float64()*40))
		if rng.Float64() < 0.75 {
			led.Injectors = append(led.Injectors, NewNetworkScan(
				nextID(), od, randBin(dur), dur, scanner,
				scanPorts[rng.IntN(len(scanPorts))], flows))
		} else {
			target := hostAt(od.Dest, rng.Uint64N(100))
			led.Injectors = append(led.Injectors, NewPortScan(
				nextID(), od, randBin(dur), dur, scanner, target, flows))
		}
	}

	// Worms: port 1433 (SQL-Snake) or 445 (Deloder), several OD pairs.
	wormPorts := []uint16{flow.PortMSSQL, flow.PortDeloder}
	for i := 0; i < cfg.scaled(cfg.Worms); i++ {
		norigins := 2 + rng.IntN(3)
		var ods []topology.ODPair
		for len(ods) < norigins {
			ods = append(ods, randomOD())
		}
		dur := 2 + rng.IntN(4)
		flows := uint64(cfg.RefBytes / 4700 * (12 + rng.Float64()*20))
		led.Injectors = append(led.Injectors, NewWorm(
			nextID(), ods, randBin(dur), dur, wormPorts[rng.IntN(len(wormPorts))], flows))
	}

	// Point-to-multipoint: news service broadcasts.
	for i := 0; i < cfg.scaled(cfg.PtMults); i++ {
		od := randomOD()
		dur := 1 + rng.IntN(3)
		server := hostAt(od.Origin, rng.Uint64N(10))
		nrecv := uint64(40 + rng.IntN(200))
		pkts := uint64(cfg.RefBytes * (6 + rng.Float64()*10) / float64(nrecv) / 1100)
		if pkts == 0 {
			pkts = 1
		}
		led.Injectors = append(led.Injectors, NewPointMultipoint(
			nextID(), od, randBin(dur), dur, server, flow.PortNNTP, nrecv, pkts))
	}

	// Outages: scheduled maintenance / failures, lasting hours.
	for i := 0; i < cfg.scaled(cfg.Outages); i++ {
		pop := topology.PoP(rng.IntN(numPoPs))
		dur := 24 + rng.IntN(48)
		led.Injectors = append(led.Injectors, NewOutage(
			nextID(), top, pop, randBin(dur), dur, 0.02+rng.Float64()*0.05))
	}

	// Ingress shifts: the CALREN-style multihomed reroute between the
	// topology's multihomed customer homes.
	from, to, ok := top.Multihomed()
	if !ok {
		// No multihomed customer: model the shift between the first two PoPs.
		from, to = 0, 1
	}
	for i := 0; i < cfg.scaled(cfg.IngressShifts); i++ {
		f, t := from, to
		if rng.Float64() < 0.5 {
			f, t = t, f
		}
		dur := 4 + rng.IntN(20)
		led.Injectors = append(led.Injectors, NewIngressShift(
			nextID(), top, f, t, randBin(dur), dur, 0.5+rng.Float64()*0.4))
	}
	return led, nil
}
