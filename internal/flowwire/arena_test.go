package flowwire

import (
	"bytes"
	"reflect"
	"testing"
)

// packetBound is the length each exporter reserves for a packet of n
// flow records before encoding it.
func packetBound(format Format, n int) int {
	switch format {
	case FormatNetFlowV5:
		return V5HeaderLen + V5RecordLen*n
	case FormatSFlow:
		return sflowHeaderLen + sflowSampleLen*n
	default:
		return templatePacketMax(n)
	}
}

// TestDrainSurvivesReset: a drained packet is the caller's. After Drain
// every exporter goes on writing into the arena chunk the packet lives in,
// then fills it and starts new ones; the packet, and every packet drained
// along the way, must keep its bytes and decode to its records.
func TestDrainSurvivesReset(t *testing.T) {
	for _, format := range AllFormats() {
		t.Run(format.String(), func(t *testing.T) {
			exp, err := NewExporter(format, 3, 100, nil)
			if err != nil {
				t.Fatal(err)
			}
			flows := testFlows(64)
			if err := exp.Add(flows[0]); err != nil {
				t.Fatal(err)
			}
			if err := exp.Flush(); err != nil {
				t.Fatal(err)
			}
			first := exp.Drain()
			if len(first) != 1 {
				t.Fatalf("packets=%d", len(first))
			}
			kept := bytes.Clone(first[0])

			// Refill with different records past two chunk boundaries,
			// draining every few dozen records so drains land mid-chunk.
			var later [][]byte
			written, added := 0, 0
			for i := 1; written <= 2*arenaChunk; i++ {
				if err := exp.Add(flows[i%len(flows)]); err != nil {
					t.Fatal(err)
				}
				added++
				if i%37 == 0 {
					if err := exp.Flush(); err != nil {
						t.Fatal(err)
					}
					for _, p := range exp.Drain() {
						written += len(p)
						later = append(later, p)
					}
				}
			}
			if err := exp.Flush(); err != nil {
				t.Fatal(err)
			}
			later = append(later, exp.Drain()...)

			if !bytes.Equal(first[0], kept) {
				t.Fatal("drained packet changed after the exporter refilled its arena")
			}
			reg, err := NewRegistry()
			if err != nil {
				t.Fatal(err)
			}
			_, recs, err := reg.Decode(first[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := []Record{refNormalize(flows[0])}; !reflect.DeepEqual(recs, want) {
				t.Fatalf("drained packet decodes to %+v, want %+v", recs, want)
			}
			got := 0
			for i, p := range later {
				_, recs, err := reg.Decode(p, nil)
				if err != nil {
					t.Fatalf("packet %d: %v", i, err)
				}
				if len(p) > packetBound(format, len(recs)) {
					t.Fatalf("packet %d of %d records is %d bytes, over the %d its exporter reserved", i, len(recs), len(p), packetBound(format, len(recs)))
				}
				for j, r := range recs {
					if want := refNormalize(flows[(got+j+1)%len(flows)]); r != want {
						t.Fatalf("packet %d record %d: %+v, want %+v", i, j, r, want)
					}
				}
				got += len(recs)
			}
			if got != added {
				t.Fatalf("decoded %d records, added %d", got, added)
			}
		})
	}
}
