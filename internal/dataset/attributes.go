package dataset

import (
	"netwide/internal/flowwire"
	"netwide/internal/heavyhitter"
	"netwide/internal/ipaddr"
	"netwide/internal/topology"
)

// Dim is an attribute dimension of a flow record.
type Dim int

// The four attribute dimensions the classifier inspects, per the paper:
// "whether any source address range, destination address range, source
// port, or destination port was dominant".
const (
	SrcAddr Dim = iota
	DstAddr
	SrcPort
	DstPort
	NumDims
)

var dimNames = [NumDims]string{"srcAddr", "dstAddr", "srcPort", "dstPort"}

// String names the dimension.
func (d Dim) String() string {
	if d < 0 || d >= NumDims {
		return "dim(?)"
	}
	return dimNames[d]
}

// sketchCapacity bounds per-item error to Total/32, far below the paper's
// dominance threshold of 0.2.
const sketchCapacity = 32

// AttributeSummary holds, for one (OD pair, bin) cell, the heavy-hitter
// sketches of every attribute dimension weighted by every measure, plus the
// cell totals. Address keys are /21 ranges (the granularity forced by the
// 11-bit destination anonymization, applied to sources as well for
// symmetry).
type AttributeSummary struct {
	OD  topology.ODPair
	Bin int
	// Sketch[measure][dim] approximates the weight distribution.
	Sketch [NumMeasures][NumDims]*heavyhitter.Sketch
	// Total[measure] is the cell's total sampled weight.
	Total [NumMeasures]float64
	// PktPerFlowNear1 reports whether sampled packets ~= sampled flows
	// (the scan signature: every probe flow is a single packet).
	PktPerFlowNear1 bool
}

// addrKey collapses an address to its /21 range key.
func addrKey(a ipaddr.Addr) uint64 { return uint64(a.Anonymize()) }

// BinAttributes regenerates the records of (od, bin) and summarizes their
// attribute distributions. Records that resolved to a different OD pair
// (spoofed or shifted destinations) still count toward the generating
// cell — the classifier inspects the traffic observed on the anomalous
// flow, which is what the generating cell carried.
func (d *Dataset) BinAttributes(od topology.ODPair, bin int) *AttributeSummary {
	s := &AttributeSummary{OD: od, Bin: bin}
	for m := Measure(0); m < NumMeasures; m++ {
		for dim := Dim(0); dim < NumDims; dim++ {
			s.Sketch[m][dim] = heavyhitter.New(sketchCapacity)
		}
	}
	d.ForEachResolvedRecord(od, bin, func(_ topology.ODPair, rec flowwire.Flow) {
		keys := [NumDims]uint64{
			SrcAddr: addrKey(rec.Key.Src),
			DstAddr: addrKey(rec.Key.Dst),
			SrcPort: uint64(rec.Key.SrcPort),
			DstPort: uint64(rec.Key.DstPort),
		}
		weights := [NumMeasures]float64{
			Bytes:   float64(rec.Bytes),
			Packets: float64(rec.Packets),
			Flows:   1,
		}
		for m := Measure(0); m < NumMeasures; m++ {
			s.Total[m] += weights[m]
			for dim := Dim(0); dim < NumDims; dim++ {
				s.Sketch[m][dim].Add(keys[dim], weights[m])
			}
		}
	})
	if s.Total[Flows] > 0 {
		ratio := s.Total[Packets] / s.Total[Flows]
		s.PktPerFlowNear1 = ratio < 1.3
	}
	return s
}

// Dominant applies the paper's threshold test: it returns the heaviest key
// of the dimension under the measure and whether it accounts for more than
// fraction p of the cell's total.
func (s *AttributeSummary) Dominant(m Measure, dim Dim, p float64) (uint64, bool) {
	sk := s.Sketch[m][dim]
	if sk == nil || s.Total[m] <= 0 {
		return 0, false
	}
	it, ok := sk.Max()
	if !ok {
		return 0, false
	}
	return it.Key, it.GuaranteedFraction(s.Total[m]) > p
}

// DominantAny reports dominance of the dimension under any of the three
// measures, returning the first dominant key found (B, then P, then F
// order). The paper's test is "defined over either of the three types".
func (s *AttributeSummary) DominantAny(dim Dim, p float64) (uint64, bool) {
	for m := Measure(0); m < NumMeasures; m++ {
		if k, ok := s.Dominant(m, dim, p); ok {
			return k, true
		}
	}
	return 0, false
}

// Merge folds another summary (e.g. an adjacent bin of the same anomaly)
// into s.
func (s *AttributeSummary) Merge(other *AttributeSummary) {
	for m := Measure(0); m < NumMeasures; m++ {
		s.Total[m] += other.Total[m]
		for dim := Dim(0); dim < NumDims; dim++ {
			s.Sketch[m][dim].Merge(other.Sketch[m][dim])
		}
	}
	if s.Total[Flows] > 0 {
		s.PktPerFlowNear1 = s.Total[Packets]/s.Total[Flows] < 1.3
	}
}
