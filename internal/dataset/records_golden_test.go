package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"netwide/internal/flowwire"
	"netwide/internal/topology"
)

// recordFingerprint hashes every record ForEachResolvedRecord emits for the
// given bins, cell by cell in (bin, OD column) order: the resolved OD's
// column, the 5-tuple, packets and bytes, fixed-width little-endian. It also
// returns the record count, so a drift in how many records a cell emits
// reads as such.
func recordFingerprint(d *Dataset, bins []int) (string, int) {
	h := sha256.New()
	var buf [8 + 4 + 4 + 2 + 2 + 1 + 8 + 8]byte
	n := 0
	emit := func(res topology.ODPair, rec flowwire.Flow) {
		binary.LittleEndian.PutUint64(buf[0:], uint64(d.Top.Index(res)))
		binary.LittleEndian.PutUint32(buf[8:], uint32(rec.Key.Src))
		binary.LittleEndian.PutUint32(buf[12:], uint32(rec.Key.Dst))
		binary.LittleEndian.PutUint16(buf[16:], rec.Key.SrcPort)
		binary.LittleEndian.PutUint16(buf[18:], rec.Key.DstPort)
		buf[20] = uint8(rec.Key.Proto)
		binary.LittleEndian.PutUint64(buf[21:], rec.Packets)
		binary.LittleEndian.PutUint64(buf[29:], rec.Bytes)
		h.Write(buf[:])
		n++
	}
	for _, bin := range bins {
		for i := 0; i < d.Top.NumODPairs(); i++ {
			d.ForEachResolvedRecord(d.Top.ODAt(i), bin, emit)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), n
}

// TestAbileneGoldenRecords pins the record stream itself, not only its sums:
// source addresses and ports never reach the B/P/F matrices, so a generator
// that drew a different source would pass TestAbileneGoldenDataset. The
// hashes cover every record of the quick abilene week and of a fixed subset
// of geant bins (weekday and weekend, night and peak, both ends of the
// week). They were recorded from the generator that still called Log1p per
// geometric skip and Exp per Poisson draw; every fast path must reproduce
// them without regeneration.
func TestAbileneGoldenRecords(t *testing.T) {
	const (
		goldenAbilene        = "fbec68188c7b620d3e00338eaf4eab8047cf6b9ea13377033f8fa6af200ba127"
		goldenAbileneRecords = 4887124
		goldenGeant          = "fc4ae7ed149f325ac22b478c1ad38f2e1d9d6256501585f5086cdd6c11edf932"
		goldenGeantRecords   = 20390
	)
	ab, err := prepare(quickAbilene())
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, ab.Bins)
	for i := range all {
		all[i] = i
	}
	if got, n := recordFingerprint(ab, all); got != goldenAbilene || n != goldenAbileneRecords {
		t.Errorf("abilene record stream drifted:\n got  %s (%d records)\n want %s (%d records)", got, n, goldenAbilene, goldenAbileneRecords)
	}
	gcfg := quickAbilene()
	gcfg.Topology = topology.Ref{Kind: "geant"}
	g, err := prepare(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	geantBins := []int{0, 1, 50, 180, 500, 1000, 1500, 1700, 2015}
	if got, n := recordFingerprint(g, geantBins); got != goldenGeant || n != goldenGeantRecords {
		t.Errorf("geant record stream drifted:\n got  %s (%d records)\n want %s (%d records)", got, n, goldenGeant, goldenGeantRecords)
	}
}
