package checkpoint

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// FuzzCheckpointRead feeds Read arbitrary bytes twice: as a whole file, which
// mostly exercises the header checks, and as a payload behind a header that
// verifies, which is the only way mutations reach the payload decoder past
// the checksum. Either way Read must not panic, must not allocate more than
// a small multiple of what it was given — no length in the file is believed
// before the bytes behind it are known to be there — and must fail with a
// descriptive error or return a state that encodes back and reads the same.
func FuzzCheckpointRead(f *testing.F) {
	var file bytes.Buffer
	if err := Write(&file, sampleState()); err != nil {
		f.Fatal(err)
	}
	f.Add(file.Bytes())
	f.Add(file.Bytes()[headerLen:])
	f.Add([]byte(gobMagic + "a gob snapshot of versions 1-4"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		wrapped := envelope(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st1, err1 := Read(bytes.NewReader(data))
		st2, err2 := Read(bytes.NewReader(wrapped))
		runtime.ReadMemStats(&after)
		// Per input byte: 3x for Read's growing copy of it, 4x for the
		// worst decoded element (an empty string is 4 bytes in the file and
		// a 16-byte header in memory); the constant is room for the error
		// messages and the test's own goroutines.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*(len(data)+len(wrapped))+64<<10); got > limit {
			t.Fatalf("two Reads of %d and %d bytes allocated %d bytes (limit %d)", len(data), len(wrapped), got, limit)
		}
		checkOutcome(t, st1, err1)
		checkOutcome(t, st2, err2)
	})
}

// checkOutcome: a Read fails with a descriptive error or returns a state
// that encodes and reads back to the same bytes, and whose checked ledger
// decodes to anomalies that Append encodes back to the bytes it adopted.
func checkOutcome(t *testing.T, st *State, err error) {
	if err != nil {
		if st != nil || !strings.HasPrefix(err.Error(), "checkpoint: ") || len(err.Error()) < len("checkpoint: ")+10 {
			t.Fatalf("undiagnostic failure: state %v, error %q", st, err)
		}
		return
	}
	anoms := st.Anomalies.Anomalies()
	if again := ledgerOf(anoms...); again.n != st.Anomalies.n || again.ods != st.Anomalies.ods || !bytes.Equal(again.w.buf, st.Anomalies.w.buf) {
		t.Fatalf("a checked ledger of %d anomalies does not decode to what it holds", st.Anomalies.Len())
	}
	// Compare encodings, not states: NaN is a legal float in a file (the
	// restore layers reject it) and never equals itself.
	var first, second bytes.Buffer
	if err := Write(&first, st); err != nil {
		t.Fatalf("a state Read accepted does not encode: %v", err)
	}
	st2, err := Read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("a state Read accepted does not read back: %v", err)
	}
	if err := Write(&second, st2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("Write -> Read -> Write is not stable")
	}
}
