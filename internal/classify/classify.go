// Package classify implements the semi-automated anomaly classification of
// Section 4: each aggregated event is labeled by inspecting the dominant
// attributes of the traffic it carried (an address range or port is
// dominant when it exceeds fraction p = 0.2 of the cell's traffic in any of
// the three measures), the signs of the identified residuals (spike vs
// dip), and the measure set the event was detected in, following the
// features column of Table 2.
//
// The paper classified by hand with a semi-automated helper; this package
// is that helper made total: every event receives a label, with UNKNOWN and
// FALSE ALARM as fallthrough buckets exactly as in Table 3.
package classify

import (
	"fmt"
	"math"
	"sync/atomic"

	"netwide/internal/anomaly"
	"netwide/internal/dataset"
	"netwide/internal/events"
	"netwide/internal/flow"
)

// Class is a classification outcome: one of the Table 2 anomaly types or
// the two fallthrough buckets.
type Class int

// Classification outcomes.
const (
	ClassAlpha Class = iota
	ClassDOS
	ClassDDOS
	ClassFlash
	ClassScan
	ClassWorm
	ClassPointMultipoint
	ClassOutage
	ClassIngressShift
	ClassUnknown
	ClassFalseAlarm
	NumClasses
)

var classNames = [NumClasses]string{
	"ALPHA", "DOS", "DDOS", "FLASH", "SCAN", "WORM", "PT-MULT", "OUTAGE", "INGR-SHIFT",
	"UNKNOWN", "FALSE-ALARM",
}

// String returns the Table 3 label.
func (c Class) String() string {
	if c < 0 || c >= NumClasses {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// FromAnomalyType maps a ground-truth injector type to the class a perfect
// classifier would assign.
func FromAnomalyType(t anomaly.Type) Class {
	switch t {
	case anomaly.Alpha:
		return ClassAlpha
	case anomaly.DOS:
		return ClassDOS
	case anomaly.DDOS:
		return ClassDDOS
	case anomaly.FlashCrowd:
		return ClassFlash
	case anomaly.Scan:
		return ClassScan
	case anomaly.Worm:
		return ClassWorm
	case anomaly.PointMultipoint:
		return ClassPointMultipoint
	case anomaly.Outage:
		return ClassOutage
	case anomaly.IngressShift:
		return ClassIngressShift
	default:
		return ClassUnknown
	}
}

// Tunables of the classification heuristics.
const (
	// DominanceP is the paper's dominance threshold ("we found that a
	// value of p = 0.2 worked well").
	DominanceP = 0.2
	// falseAlarmZ is the minimum robust z-score any event cell must reach
	// in a detected measure; below it, visual inspection would show "no
	// distinctly unusual changes in volume" — a false alarm.
	falseAlarmZ = 3.0
	// clusterTopK and clusterFrac implement the Jung et al. flash-vs-DOS
	// heuristic: flash-crowd clients are topologically clustered, so the
	// top K source ranges carry a substantial share of flows; spoofed DOS
	// sources are uniform, so they do not.
	clusterTopK = 8
	clusterFrac = 0.25
	// maxCellsPerEvent caps attribute regeneration work for very wide
	// events (outages touch 21 OD flows for many bins).
	maxCellsPerEvent = 48
)

// Verdict is a classified event with its evidence.
type Verdict struct {
	Event events.Event
	Class Class
	// Why is a one-line human-readable justification.
	Why string
	// Dominant{Src,Dst}Addr / Ports record the dominant attribute values
	// found (0 if none).
	DominantSrcAddr, DominantDstAddr uint64
	DominantSrcPort, DominantDstPort uint16
	// MaxZ is the largest robust z-score across the event's cells.
	MaxZ float64
}

// Classifier labels events against a dataset. It caches nothing: the
// seasonal baselines it scores cells against are the dataset's
// (Dataset.Baseline), computed once and shared by every classifier on the
// dataset, so a Classifier is safe for concurrent use.
type Classifier struct {
	DS *dataset.Dataset
	// P is the dominance threshold (DominanceP if zero).
	P float64
}

// New returns a classifier over the dataset.
func New(ds *dataset.Dataset) *Classifier {
	return &Classifier{DS: ds, P: DominanceP}
}

// robustZ returns the robust z-score of value x observed at bin against the
// seasonal baseline b.
func robustZ(b *dataset.Baseline, x float64, bin int) float64 {
	mad := b.MAD
	if mad <= 0 {
		mad = 1
	}
	return math.Abs(x-b.Med[bin%len(b.Med)]) / mad
}

// attributes merges the per-cell attribute summaries of the event.
func (c *Classifier) attributes(ev events.Event) *dataset.AttributeSummary {
	var merged *dataset.AttributeSummary
	cells := 0
	for bin := ev.StartBin; bin <= ev.EndBin && cells < maxCellsPerEvent; bin++ {
		for _, od := range ev.ODs {
			if cells >= maxCellsPerEvent {
				break
			}
			cells++
			s := c.DS.BinAttributes(c.DS.ODAt(od), bin)
			if merged == nil {
				merged = s
			} else {
				merged.Merge(s)
			}
		}
	}
	return merged
}

// maxAbsZ finds the largest |robust z| of the event's cells over its
// detected measures.
func (c *Classifier) maxAbsZ(ev events.Event) float64 {
	maxZ := 0.0
	for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
		if !ev.Measures.Has(m) {
			continue
		}
		x := c.DS.Matrix(m)
		for bin := ev.StartBin; bin <= ev.EndBin; bin++ {
			for _, od := range ev.ODs {
				if z := robustZ(c.DS.Baseline(m, od), x.At(bin, od), bin); z > maxZ {
					maxZ = z
				}
			}
		}
	}
	return maxZ
}

// classified counts Classify calls, process-wide.
var classified atomic.Uint64

// Classified returns how many events this process has classified so far,
// over every Classifier. A classification regenerates the event's flow
// records, so a test can assert that a path which should not classify — a
// daemon being killed — did not.
func Classified() uint64 { return classified.Load() }

// Classify labels one event.
func (c *Classifier) Classify(ev events.Event) Verdict {
	classified.Add(1)
	p := c.P
	if p == 0 {
		p = DominanceP
	}
	v := Verdict{Event: ev}
	v.MaxZ = c.maxAbsZ(ev)
	if v.MaxZ < falseAlarmZ {
		v.Class = ClassFalseAlarm
		v.Why = fmt.Sprintf("no cell deviates from baseline (max |z| = %.1f)", v.MaxZ)
		return v
	}

	attr := c.attributes(ev)
	// Dominance is tested only in the measures the event was detected in:
	// an anomaly detected in packets and flows is characterized by its
	// packet/flow attribute distribution, not by whichever background
	// elephant flow happens to dominate the byte counts of the same cells.
	srcAddr, srcDom := dominantIn(attr, dataset.SrcAddr, p, ev.Measures)
	dstAddr, dstDom := dominantIn(attr, dataset.DstAddr, p, ev.Measures)
	srcPort, sportDom := dominantIn(attr, dataset.SrcPort, p, ev.Measures)
	dstPort, dportDom := dominantIn(attr, dataset.DstPort, p, ev.Measures)
	if srcDom {
		v.DominantSrcAddr = srcAddr
	}
	if dstDom {
		v.DominantDstAddr = dstAddr
	}
	if sportDom {
		v.DominantSrcPort = uint16(srcPort)
	}
	if dportDom {
		v.DominantDstPort = uint16(dstPort)
	}

	spikes, dips := ev.NumSpikes(), ev.NumDips()
	hasF := ev.Measures.Has(dataset.Flows)
	hasB := ev.Measures.Has(dataset.Bytes)
	hasP := ev.Measures.Has(dataset.Packets)

	switch {
	// OUTAGE: decrease in traffic with no added traffic anywhere, either
	// across multiple OD flows or sustained for a long duration (the
	// paper: "can last for long duration (hours) and in all instances
	// affected multiple OD flows"; greedy identification can understate
	// the OD set, so duration serves as corroboration).
	case dips > 0 && spikes == 0 && (len(ev.ODs) >= 2 || ev.DurationBins() >= 6):
		v.Class = ClassOutage
		v.Why = fmt.Sprintf("traffic decrease across %d OD flows for %d min", len(ev.ODs), ev.DurationBins()*5)

	// INGRESS-SHIFT: one OD set loses what another gains, no dominant
	// attribute.
	case dips > 0 && spikes > 0 && !srcDom && !dstDom:
		v.Class = ClassIngressShift
		v.Why = fmt.Sprintf("%d OD flows up, %d down, no dominant attribute", spikes, dips)

	// Dip without enough corroboration falls through to unknown below.
	case dips > 0 && spikes == 0:
		v.Class = ClassUnknown
		v.Why = "isolated traffic decrease"

	// ALPHA: dominant source AND destination pair, byte/packet spike
	// without a flow-count spike, short and narrow.
	case srcDom && dstDom && (hasB || hasP) && !hasF:
		v.Class = ClassAlpha
		v.Why = fmt.Sprintf("dominant pair %s -> %s on port %d", addrStr(srcAddr), addrStr(dstAddr), dstPort)

	// FLASH vs DOS/DDOS: both have a dominant destination; flash crowds
	// target a well-known service port from topologically clustered (not
	// spoofed) sources (Jung et al. heuristic).
	case dstDom && dportDom && (hasF || hasP) && isFlashPort(uint16(dstPort)) && c.sourcesClustered(attr):
		v.Class = ClassFlash
		v.Why = fmt.Sprintf("clustered demand for %s:%d", addrStr(dstAddr), dstPort)

	case dstDom && !srcDom && (hasF || hasP):
		if len(ev.ODs) > 1 {
			v.Class = ClassDDOS
		} else {
			v.Class = ClassDOS
		}
		v.Why = fmt.Sprintf("packet/flow flood at %s:%d, no dominant source", addrStr(dstAddr), dstPort)

	// POINT-TO-MULTIPOINT: dominant source and source port, many
	// destinations. Usually a byte/packet spike, but the flow count can be
	// the only statistic to cross its threshold when the receiver set is
	// large.
	case srcDom && sportDom && !dstDom:
		v.Class = ClassPointMultipoint
		v.Why = fmt.Sprintf("distribution from %s:%d", addrStr(srcAddr), srcPort)

	// WORM: flow spike with a dominant destination port only.
	case !srcDom && !dstDom && dportDom && hasF:
		v.Class = ClassWorm
		v.Why = fmt.Sprintf("propagation on port %d, no dominant hosts", dstPort)

	// SCAN: dominant source, packets ~ flows, and no dominant (dst IP,
	// dst port) combination: a network scan fixes the port but sweeps
	// hosts; a port scan fixes the host but sweeps ports.
	case srcDom && hasF && attr.PktPerFlowNear1 && !(dstDom && dportDom):
		v.Class = ClassScan
		v.Why = fmt.Sprintf("probes from %s, pkts~flows", addrStr(srcAddr))

	default:
		v.Class = ClassUnknown
		v.Why = "no rule matched"
	}
	return v
}

// dominantIn tests dominance of a dimension over the measures in the set.
func dominantIn(attr *dataset.AttributeSummary, dim dataset.Dim, p float64, set events.MeasureSet) (uint64, bool) {
	for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
		if !set.Has(m) {
			continue
		}
		if k, ok := attr.Dominant(m, dim, p); ok {
			return k, true
		}
	}
	return 0, false
}

// sourcesClustered applies the Jung heuristic: the top source ranges carry
// a material share of flows.
func (c *Classifier) sourcesClustered(attr *dataset.AttributeSummary) bool {
	sk := attr.Sketch[dataset.Flows][dataset.SrcAddr]
	if sk == nil || attr.Total[dataset.Flows] <= 0 {
		return false
	}
	var covered float64
	for _, it := range sk.Top(clusterTopK) {
		covered += it.Count - it.Err
	}
	return covered/attr.Total[dataset.Flows] >= clusterFrac
}

// isFlashPort reports whether the port is a well-known flash-crowd service
// (web or DNS, per the paper's examples).
func isFlashPort(p uint16) bool {
	return p == flow.PortHTTP || p == flow.PortDNS || p == 443
}

func addrStr(key uint64) string {
	return fmt.Sprintf("%d.%d.%d.%d/21", byte(key>>24), byte(key>>16), byte(key>>8), byte(key))
}
