// Package scenario is the declarative anomaly-injection engine: a Scenario
// (a plain Go struct, loadable from JSON by the command-line tools)
// schedules anomaly episodes — DDoS, scans, flash crowds, alpha flows,
// outages, worm-like multi-origin sweeps — with per-episode magnitude,
// duration and OD targeting, and compiles them into the injector Ledger the
// measurement pipeline consumes.
//
// It replaces the baked-in random schedule as the way to drive experiments:
// where anomaly.DefaultSchedule reproduces the paper's Table 3 prevalence
// on whatever topology it is given, a Scenario pins down exactly which
// anomalies hit which OD pairs when — the controlled input that detection
// quality sweeps across topologies need. Episode fields left zero fall back
// to the same magnitude and duration distributions the default schedule
// uses, so a scenario can be as loose ("20 scans somewhere, sometime") or
// as pinned ("a 9x DDoS against LOSA from 3 origins at bin 288") as the
// experiment demands.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"

	"netwide/internal/anomaly"
	"netwide/internal/flow"
	"netwide/internal/ipaddr"
	"netwide/internal/topology"
	"netwide/internal/traffic"
)

// Episode schedules Count anomalies of one type. Zero-valued fields choose
// the same defaults the random schedule uses, drawn deterministically from
// the scenario seed.
type Episode struct {
	// Type is one of the honest classes "alpha", "dos", "ddos", "flash",
	// "scan", "portscan", "worm", "ptmult", "outage", "ingress-shift", or
	// the adversarial classes "stealth-ddos", "coordinated", "slow-ramp",
	// "contamination" (see anomaly's adversarial injectors).
	Type string `json:"type"`
	// Count is the number of copies to schedule (0 means 1).
	Count int `json:"count,omitempty"`
	// StartBin pins the start; -1 (or omitted-as--1) places each copy at a
	// random bin. Note that 0 is a valid pinned start, so JSON scenarios
	// wanting random placement must write "start_bin": -1.
	StartBin int `json:"start_bin"`
	// DurationBins pins the length; 0 draws the type's default duration.
	DurationBins int `json:"duration_bins,omitempty"`
	// Magnitude scales the episode's intensity as a multiple of the mean
	// per-(OD,bin) traffic volume; 0 draws the type's default range. For
	// "outage" it is instead the surviving traffic fraction (0 -> default
	// 2-7% residual); for "ingress-shift" the shifted customer share.
	Magnitude float64 `json:"magnitude,omitempty"`
	// Origin and Dest name PoPs of the target OD pair ("" means random).
	// For "outage", Origin names the failing PoP; for "ingress-shift",
	// Origin and Dest name the from/to PoPs (default: the topology's
	// multihomed customer homes).
	Origin string `json:"origin,omitempty"`
	Dest   string `json:"dest,omitempty"`
	// Origins is the origin-PoP fan-in of "ddos" and "worm" episodes
	// (0 means 2-4 at random).
	Origins int `json:"origins,omitempty"`
	// Port pins the service/attack port; 0 draws the type's default.
	Port uint16 `json:"port,omitempty"`
}

// Scenario is a full injection plan.
type Scenario struct {
	Name string `json:"name"`
	// Seed drives all randomness left open by the episodes (targets,
	// durations, magnitudes); 0 derives it from the dataset seed, so the
	// same scenario file played under different dataset seeds yields
	// different concrete placements.
	Seed     uint64    `json:"seed,omitempty"`
	Episodes []Episode `json:"episodes"`
}

// episodeTypes lists the accepted Episode.Type values.
var episodeTypes = map[string]bool{
	"alpha": true, "dos": true, "ddos": true, "flash": true, "scan": true,
	"portscan": true, "worm": true, "ptmult": true, "outage": true,
	"ingress-shift": true,
	"stealth-ddos":  true, "coordinated": true, "slow-ramp": true,
	"contamination": true,
}

// FromJSON parses a scenario, rejecting unknown fields and trailing
// content so typos in episode keys or stray text fail loudly instead of
// silently injecting defaults.
func FromJSON(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing content after the scenario object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads and parses a scenario JSON file.
func LoadFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := FromJSON(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}

// JSON renders the scenario as indented JSON (the format LoadFile reads).
func (s *Scenario) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Shape limits enforced by Validate.
const (
	// MaxMagnitude caps the volume multiplier of every additive episode
	// class: beyond it the flow counts overflow any realistic bin and the
	// scenario is almost certainly a typo.
	MaxMagnitude = 1e4
	// MaxStealthMagnitude caps "stealth-ddos": the class exists to model
	// attacks holding under the detection threshold, and past a few
	// multiples of the mean OD load the episode is an ordinary ddos.
	MaxStealthMagnitude = 8
	// MaxContaminationBoost caps the "contamination" volume boost: the
	// class models a plateau subtle enough to survive inside a training
	// window, not a flood.
	MaxContaminationBoost = 4
	// MaxDurationBins caps a pinned episode duration at four weeks — longer
	// than any run the generator produces, so a bigger value is a typo
	// caught here rather than a Build error naming the wrong limit.
	MaxDurationBins = 4 * traffic.BinsPerWeek
)

// Validate checks episode shapes (types, counts, durations, magnitudes).
// Topology-dependent checks — PoP names, bin ranges — happen in Build,
// where the topology and run length are known.
func (s *Scenario) Validate() error {
	if len(s.Episodes) == 0 {
		return fmt.Errorf("scenario: %q has no episodes", s.Name)
	}
	for i, e := range s.Episodes {
		if !episodeTypes[e.Type] {
			return fmt.Errorf("scenario: episode %d: unknown type %q", i, e.Type)
		}
		if e.Count < 0 {
			return fmt.Errorf("scenario: episode %d: negative count", i)
		}
		if e.StartBin < -1 {
			return fmt.Errorf("scenario: episode %d: start_bin %d (want >= 0, or -1 for random)", i, e.StartBin)
		}
		if e.DurationBins < 0 {
			return fmt.Errorf("scenario: episode %d: negative duration", i)
		}
		if e.DurationBins > MaxDurationBins {
			return fmt.Errorf("scenario: episode %d: duration %d bins exceeds the %d-bin (4-week) cap", i, e.DurationBins, MaxDurationBins)
		}
		if e.Magnitude < 0 {
			return fmt.Errorf("scenario: episode %d: negative magnitude", i)
		}
		if e.Magnitude > MaxMagnitude {
			return fmt.Errorf("scenario: episode %d: magnitude %v implausible (want <= %v times the mean OD load)", i, e.Magnitude, float64(MaxMagnitude))
		}
		if e.Origins < 0 {
			return fmt.Errorf("scenario: episode %d: negative origins", i)
		}
		switch e.Type {
		case "outage":
			if e.Magnitude >= 1 {
				return fmt.Errorf("scenario: episode %d: outage magnitude %v is the surviving fraction, want < 1", i, e.Magnitude)
			}
		case "ingress-shift":
			if e.Magnitude > 1 {
				return fmt.Errorf("scenario: episode %d: ingress-shift magnitude %v is the shifted share, want <= 1", i, e.Magnitude)
			}
		case "stealth-ddos":
			if e.Magnitude > MaxStealthMagnitude {
				return fmt.Errorf("scenario: episode %d: stealth-ddos magnitude %v is not stealthy (want <= %d times the mean OD load; use ddos for overt attacks)", i, e.Magnitude, MaxStealthMagnitude)
			}
		case "contamination":
			if e.Magnitude > MaxContaminationBoost {
				return fmt.Errorf("scenario: episode %d: contamination magnitude %v is the extra volume fraction, want <= %d (use dos/ddos for floods)", i, e.Magnitude, MaxContaminationBoost)
			}
		case "slow-ramp":
			if e.DurationBins == 1 {
				return fmt.Errorf("scenario: episode %d: slow-ramp duration 1 bin cannot ramp (want >= 2 bins or 0 for the default)", i)
			}
		}
	}
	return nil
}

// builder carries the compilation state of one Build call.
type builder struct {
	top       *topology.Topology
	bg        *traffic.Background
	rng       *rand.Rand
	totalBins int
	refBytes  float64
	id        int
}

// Build compiles the scenario into a ground-truth Ledger for a run of the
// given number of weeks over the topology/background pair. All randomness
// left open by the episodes comes from the scenario seed (or the background
// seed when unset), so compilation is reproducible.
func (s *Scenario) Build(top *topology.Topology, bg *traffic.Background, weeks int) (*anomaly.Ledger, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if weeks <= 0 {
		return nil, fmt.Errorf("scenario: weeks %d must be positive", weeks)
	}
	seed := s.Seed
	if seed == 0 {
		seed = bg.Seed
	}
	b := &builder{
		top: top, bg: bg,
		rng:       rand.New(rand.NewPCG(seed, 0x5CE9A210)),
		totalBins: weeks * traffic.BinsPerWeek,
		refBytes:  bg.MeanRateBps * traffic.BinSeconds / float64(top.NumODPairs()),
	}
	led := &anomaly.Ledger{}
	for i, e := range s.Episodes {
		count := e.Count
		if count == 0 {
			count = 1
		}
		for c := 0; c < count; c++ {
			inj, err := b.compile(e)
			if err != nil {
				return nil, fmt.Errorf("scenario: episode %d (%s): %w", i, e.Type, err)
			}
			led.Injectors = append(led.Injectors, inj)
		}
	}
	return led, nil
}

func (b *builder) nextID() int { b.id++; return b.id }

// pop resolves a PoP name, or draws one at random when the name is empty.
func (b *builder) pop(name string) (topology.PoP, error) {
	if name == "" {
		return topology.PoP(b.rng.IntN(b.top.NumPoPs())), nil
	}
	return b.top.PoPByName(name)
}

// od resolves the episode's target OD pair.
func (b *builder) od(e Episode) (topology.ODPair, error) {
	o, err := b.pop(e.Origin)
	if err != nil {
		return topology.ODPair{}, err
	}
	d, err := b.pop(e.Dest)
	if err != nil {
		return topology.ODPair{}, err
	}
	return topology.ODPair{Origin: o, Dest: d}, nil
}

// hostAt picks a deterministic host of a random customer at the PoP.
func (b *builder) hostAt(p topology.PoP, salt uint64) ipaddr.Addr {
	custs := b.top.CustomersAt(p)
	c := custs[b.rng.IntN(len(custs))]
	return c.Prefixes[0].Nth(salt)
}

// window picks the episode's (start, duration): pinned values are honored,
// open ones drawn from the type default passed in defDur.
func (b *builder) window(e Episode, defDur int) (start, dur int, err error) {
	dur = e.DurationBins
	if dur == 0 {
		dur = defDur
	}
	if dur >= b.totalBins {
		return 0, 0, fmt.Errorf("duration %d bins exceeds the %d-bin run", dur, b.totalBins)
	}
	start = e.StartBin
	if start < 0 {
		start = b.rng.IntN(b.totalBins - dur)
	}
	// A pinned window must fit entirely inside the run: a silently
	// truncated episode would record ground-truth bins that were never
	// injected, breaking recall accounting.
	if start+dur > b.totalBins {
		return 0, 0, fmt.Errorf("window [%d,%d] extends past the %d-bin run", start, start+dur-1, b.totalBins)
	}
	return start, dur, nil
}

// mag returns the episode magnitude, or a draw from [lo, hi) when unset.
func (b *builder) mag(e Episode, lo, hi float64) float64 {
	if e.Magnitude > 0 {
		return e.Magnitude
	}
	return lo + b.rng.Float64()*(hi-lo)
}

// port returns the pinned port or a deterministic draw from defaults.
func (b *builder) port(e Episode, defaults ...uint16) uint16 {
	if e.Port != 0 {
		return e.Port
	}
	return defaults[b.rng.IntN(len(defaults))]
}

// origins draws a multi-origin OD set targeting dst; the fan-in defaults to
// [defLo, defLo+defSpan) when the episode leaves Origins unset.
func (b *builder) originODs(e Episode, dst topology.PoP, distinct bool, defLo, defSpan int) []topology.ODPair {
	n := e.Origins
	if n == 0 {
		n = defLo + b.rng.IntN(defSpan)
	}
	if max := b.top.NumPoPs() - 1; distinct && n > max {
		n = max
	}
	seen := map[topology.PoP]bool{dst: true}
	var ods []topology.ODPair
	for len(ods) < n {
		o := topology.PoP(b.rng.IntN(b.top.NumPoPs()))
		if distinct {
			if seen[o] {
				continue
			}
			seen[o] = true
		}
		ods = append(ods, topology.ODPair{Origin: o, Dest: dst})
	}
	return ods
}

// compile materializes one copy of the episode as an injector. The
// magnitude and duration defaults mirror anomaly.DefaultSchedule, so an
// unpinned scenario episode is statistically indistinguishable from a
// schedule-generated anomaly of the same type.
func (b *builder) compile(e Episode) (anomaly.Injector, error) {
	switch e.Type {
	case "alpha":
		od, err := b.od(e)
		if err != nil {
			return nil, err
		}
		start, dur, err := b.window(e, 1+b.rng.IntN(2))
		if err != nil {
			return nil, err
		}
		vol := b.refBytes * b.mag(e, 6, 20)
		port := b.port(e, flow.PortIperfLo, 5001, 5010, flow.PortIperfHi, flow.PortPathdiag, flow.PortKazaa)
		return anomaly.NewAlpha(b.nextID(), od, start, dur,
			b.hostAt(od.Origin, b.rng.Uint64N(1000)), b.hostAt(od.Dest, b.rng.Uint64N(1000)),
			port, vol), nil

	case "dos":
		od, err := b.od(e)
		if err != nil {
			return nil, err
		}
		start, dur, err := b.window(e, 1+b.rng.IntN(4))
		if err != nil {
			return nil, err
		}
		victim := b.hostAt(od.Dest, b.rng.Uint64N(100))
		flows := uint64(b.refBytes / 4700 * b.mag(e, 8, 33))
		return anomaly.NewDOS(b.nextID(), []topology.ODPair{od}, start, dur,
			victim, b.port(e, flow.PortZero, flow.PortZero, flow.PortPOP, flow.PortIdentd),
			flows, uint64(2+b.rng.IntN(12))), nil

	case "ddos":
		dst, err := b.pop(e.Dest)
		if err != nil {
			return nil, err
		}
		ods := b.originODs(e, dst, true, 2, 3)
		start, dur, err := b.window(e, 1+b.rng.IntN(4))
		if err != nil {
			return nil, err
		}
		victim := b.hostAt(dst, b.rng.Uint64N(100))
		flows := uint64(b.refBytes / 4700 * b.mag(e, 5, 17))
		return anomaly.NewDOS(b.nextID(), ods, start, dur,
			victim, b.port(e, flow.PortZero), flows, uint64(2+b.rng.IntN(10))), nil

	case "flash":
		od, err := b.od(e)
		if err != nil {
			return nil, err
		}
		start, dur, err := b.window(e, 1+b.rng.IntN(3))
		if err != nil {
			return nil, err
		}
		server := b.hostAt(od.Dest, b.rng.Uint64N(20))
		port := e.Port
		if port == 0 {
			port = flow.PortHTTP
			if b.rng.Float64() < 0.15 {
				port = flow.PortDNS
			}
		}
		clients := b.top.CustomersAt(od.Origin)
		pfx := clients[b.rng.IntN(len(clients))].Prefixes[0]
		flows := uint64(b.refBytes / 4700 * b.mag(e, 10, 35))
		return anomaly.NewFlash(b.nextID(), od, start, dur, server, port, pfx, flows), nil

	case "scan":
		od, err := b.od(e)
		if err != nil {
			return nil, err
		}
		start, dur, err := b.window(e, 1+b.rng.IntN(2))
		if err != nil {
			return nil, err
		}
		scanner := b.hostAt(od.Origin, b.rng.Uint64N(5000))
		flows := uint64(b.refBytes / 4700 * b.mag(e, 15, 55))
		return anomaly.NewNetworkScan(b.nextID(), od, start, dur, scanner,
			b.port(e, flow.PortNetBIOS, flow.PortNetBIOS, flow.PortMSSQL, flow.PortDeloder), flows), nil

	case "portscan":
		od, err := b.od(e)
		if err != nil {
			return nil, err
		}
		start, dur, err := b.window(e, 1+b.rng.IntN(2))
		if err != nil {
			return nil, err
		}
		scanner := b.hostAt(od.Origin, b.rng.Uint64N(5000))
		target := b.hostAt(od.Dest, b.rng.Uint64N(100))
		flows := uint64(b.refBytes / 4700 * b.mag(e, 15, 55))
		return anomaly.NewPortScan(b.nextID(), od, start, dur, scanner, target, flows), nil

	case "worm":
		var ods []topology.ODPair
		n := e.Origins
		if n == 0 {
			n = 2 + b.rng.IntN(3)
		}
		for len(ods) < n {
			od, err := b.od(e)
			if err != nil {
				return nil, err
			}
			ods = append(ods, od)
		}
		start, dur, err := b.window(e, 2+b.rng.IntN(4))
		if err != nil {
			return nil, err
		}
		flows := uint64(b.refBytes / 4700 * b.mag(e, 12, 32))
		return anomaly.NewWorm(b.nextID(), ods, start, dur,
			b.port(e, flow.PortMSSQL, flow.PortDeloder), flows), nil

	case "ptmult":
		od, err := b.od(e)
		if err != nil {
			return nil, err
		}
		start, dur, err := b.window(e, 1+b.rng.IntN(3))
		if err != nil {
			return nil, err
		}
		server := b.hostAt(od.Origin, b.rng.Uint64N(10))
		nrecv := uint64(40 + b.rng.IntN(200))
		pkts := uint64(b.refBytes * b.mag(e, 6, 16) / float64(nrecv) / 1100)
		if pkts == 0 {
			pkts = 1
		}
		return anomaly.NewPointMultipoint(b.nextID(), od, start, dur, server, flow.PortNNTP, nrecv, pkts), nil

	case "outage":
		pop, err := b.pop(e.Origin)
		if err != nil {
			return nil, err
		}
		start, dur, err := b.window(e, 24+b.rng.IntN(48))
		if err != nil {
			return nil, err
		}
		residual := e.Magnitude
		if residual == 0 {
			residual = 0.02 + b.rng.Float64()*0.05
		}
		return anomaly.NewOutage(b.nextID(), b.top, pop, start, dur, residual), nil

	case "ingress-shift":
		from, to := topology.PoP(0), topology.PoP(1)
		if f, t, ok := b.top.Multihomed(); ok {
			from, to = f, t
		}
		var err error
		if e.Origin != "" {
			if from, err = b.top.PoPByName(e.Origin); err != nil {
				return nil, err
			}
		}
		if e.Dest != "" {
			if to, err = b.top.PoPByName(e.Dest); err != nil {
				return nil, err
			}
		}
		if from == to {
			return nil, fmt.Errorf("ingress shift from %s to itself", b.top.PoPName(from))
		}
		start, dur, err := b.window(e, 4+b.rng.IntN(20))
		if err != nil {
			return nil, err
		}
		share := e.Magnitude
		if share == 0 {
			share = 0.5 + b.rng.Float64()*0.4
		}
		return anomaly.NewIngressShift(b.nextID(), b.top, from, to, start, dur, share), nil

	case "stealth-ddos":
		dst, err := b.pop(e.Dest)
		if err != nil {
			return nil, err
		}
		// Wider fan-in than an honest ddos: the point is to dilute the
		// per-flow residual.
		ods := b.originODs(e, dst, true, 4, 4)
		start, dur, err := b.window(e, 12+b.rng.IntN(24))
		if err != nil {
			return nil, err
		}
		victim := b.hostAt(dst, b.rng.Uint64N(100))
		total := b.refBytes / 4700 * b.mag(e, 1.5, 3)
		perOD := uint64(total / float64(len(ods)))
		if perOD == 0 {
			perOD = 1
		}
		return anomaly.NewStealthDDOS(b.nextID(), ods, start, dur,
			victim, b.port(e, flow.PortZero), perOD, uint64(1+b.rng.IntN(3))), nil

	case "coordinated":
		ods, err := b.meshODs(e)
		if err != nil {
			return nil, err
		}
		start, dur, err := b.window(e, 2+b.rng.IntN(4))
		if err != nil {
			return nil, err
		}
		total := b.refBytes / 4700 * b.mag(e, 5, 12)
		perOD := uint64(total / float64(len(ods)))
		if perOD == 0 {
			perOD = 1
		}
		return anomaly.NewCoordFlood(b.nextID(), ods, start, dur,
			b.port(e, flow.PortHTTP, flow.PortDNS, flow.PortZero), perOD, 2), nil

	case "slow-ramp":
		od, err := b.od(e)
		if err != nil {
			return nil, err
		}
		start, dur, err := b.window(e, 48+b.rng.IntN(48))
		if err != nil {
			return nil, err
		}
		peak := b.refBytes * b.mag(e, 8, 18)
		return anomaly.NewSlowRamp(b.nextID(), od, start, dur,
			b.hostAt(od.Origin, b.rng.Uint64N(1000)), b.hostAt(od.Dest, b.rng.Uint64N(1000)),
			b.port(e, flow.PortHTTPS), peak), nil

	case "contamination":
		dst, err := b.pop(e.Dest)
		if err != nil {
			return nil, err
		}
		var ods []topology.ODPair
		if e.Origin != "" {
			o, err := b.top.PoPByName(e.Origin)
			if err != nil {
				return nil, err
			}
			ods = []topology.ODPair{{Origin: o, Dest: dst}}
		} else {
			ods = b.originODs(e, dst, true, 2, 2)
		}
		start, dur, err := b.window(e, 144+b.rng.IntN(144))
		if err != nil {
			return nil, err
		}
		boost := e.Magnitude
		if boost == 0 {
			boost = 0.6 + b.rng.Float64()*0.6
		}
		return anomaly.NewContamination(b.nextID(), ods, start, dur, boost), nil

	default:
		return nil, fmt.Errorf("unknown type %q", e.Type)
	}
}

// meshODs draws the OD mesh of a "coordinated" episode: distinct origins
// paired with distinct destinations (a cyclic shift of the same PoP draw,
// so origin never equals destination), spreading the volume so that no
// single flow — and no single destination — dominates.
func (b *builder) meshODs(e Episode) ([]topology.ODPair, error) {
	n := e.Origins
	if n == 0 {
		n = 6 + b.rng.IntN(4)
	}
	if n < 2 {
		return nil, fmt.Errorf("coordinated mesh needs at least 2 origins, have %d", n)
	}
	if max := b.top.NumPoPs(); n > max {
		n = max
	}
	pops := b.rng.Perm(b.top.NumPoPs())[:n]
	ods := make([]topology.ODPair, n)
	for i := 0; i < n; i++ {
		ods[i] = topology.ODPair{
			Origin: topology.PoP(pops[i]),
			Dest:   topology.PoP(pops[(i+1)%n]),
		}
	}
	return ods, nil
}
