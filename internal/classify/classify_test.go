package classify

import (
	"testing"

	"netwide/internal/anomaly"
	"netwide/internal/dataset"
	"netwide/internal/events"
	"netwide/internal/heavyhitter"
)

func TestClassString(t *testing.T) {
	if ClassAlpha.String() != "ALPHA" || ClassFalseAlarm.String() != "FALSE-ALARM" {
		t.Fatal("class names wrong")
	}
	if Class(99).String() != "Class(99)" {
		t.Fatal("unknown class name wrong")
	}
}

func TestFromAnomalyType(t *testing.T) {
	cases := map[anomaly.Type]Class{
		anomaly.Alpha:           ClassAlpha,
		anomaly.DOS:             ClassDOS,
		anomaly.DDOS:            ClassDDOS,
		anomaly.FlashCrowd:      ClassFlash,
		anomaly.Scan:            ClassScan,
		anomaly.Worm:            ClassWorm,
		anomaly.PointMultipoint: ClassPointMultipoint,
		anomaly.Outage:          ClassOutage,
		anomaly.IngressShift:    ClassIngressShift,
	}
	for typ, want := range cases {
		if got := FromAnomalyType(typ); got != want {
			t.Fatalf("FromAnomalyType(%v)=%v, want %v", typ, got, want)
		}
	}
	if FromAnomalyType(anomaly.Type(99)) != ClassUnknown {
		t.Fatal("unknown type should map to UNKNOWN")
	}
}

func TestSeasonalBaselineZ(t *testing.T) {
	const todBins = 288
	sb := &dataset.Baseline{Med: make([]float64, todBins), MAD: 2}
	sb.Med[5] = 100
	if z := robustZ(sb, 106, 5); z != 3 {
		t.Fatalf("z=%v, want 3", z)
	}
	if z := robustZ(sb, 94, 5+todBins); z != 3 {
		t.Fatalf("seasonal wrap z=%v, want 3", z)
	}
	// Degenerate MAD falls back to 1.
	sb.MAD = 0
	if z := robustZ(sb, 103, 5); z != 3 {
		t.Fatalf("degenerate-mad z=%v", z)
	}
}

func TestIsFlashPort(t *testing.T) {
	if !isFlashPort(80) || !isFlashPort(53) || !isFlashPort(443) {
		t.Fatal("well-known service ports must qualify")
	}
	if isFlashPort(0) || isFlashPort(1433) || isFlashPort(110) {
		t.Fatal("attack ports must not qualify")
	}
}

func TestDominantInRespectsMeasureSet(t *testing.T) {
	// A summary where srcAddr dominates by bytes only.
	s := &dataset.AttributeSummary{}
	for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
		for d := dataset.Dim(0); d < dataset.NumDims; d++ {
			s.Sketch[m][d] = newSketchWith(map[uint64]float64{1: 1})
		}
	}
	s.Sketch[dataset.Bytes][dataset.SrcAddr] = newSketchWith(map[uint64]float64{42: 90, 1: 10})
	s.Total[dataset.Bytes] = 100
	s.Sketch[dataset.Flows][dataset.SrcAddr] = newSketchWith(map[uint64]float64{1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1})
	s.Total[dataset.Flows] = 6

	if _, dom := dominantIn(s, dataset.SrcAddr, 0.2, events.SetB); !dom {
		t.Fatal("byte dominance not seen in B set")
	}
	if _, dom := dominantIn(s, dataset.SrcAddr, 0.2, events.SetF); dom {
		t.Fatal("flow set must not inherit byte dominance")
	}
	if _, dom := dominantIn(s, dataset.SrcAddr, 0.2, events.SetB|events.SetF); !dom {
		t.Fatal("union set must see byte dominance")
	}
}

func newSketchWith(items map[uint64]float64) *heavyhitter.Sketch {
	sk := heavyhitter.New(32)
	for k, w := range items {
		sk.Add(k, w)
	}
	return sk
}
