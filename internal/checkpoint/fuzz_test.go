package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"runtime"
	"strconv"
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
// that encodes and reads back to the same bytes.
func checkOutcome(t *testing.T, st *State, err error) {
	if err != nil {
		checkFailure(t, err)
		if st != nil {
			t.Fatalf("a failed Read returned a state: %v", st)
		}
		return
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

// checkFailure fails t unless err is a descriptive checkpoint error.
func checkFailure(t *testing.T, err error) {
	t.Helper()
	if !strings.HasPrefix(err.Error(), "checkpoint: ") || len(err.Error()) < len("checkpoint: ")+10 {
		t.Fatalf("undiagnostic failure: %q", err)
	}
}

// corpusBytes returns the one []byte value of a committed fuzz corpus file.
func corpusBytes(tb testing.TB, path string) []byte {
	tb.Helper()
	corpus, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	_, quoted, _ := strings.Cut(strings.TrimSpace(string(corpus)), "[]byte(")
	b, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		tb.Fatal(err)
	}
	return []byte(b)
}

// FuzzLedgerLoad hands the ledger loader what a snapshot says of its
// ledger — the anomaly count, the byte length, the CRC-32C — and the bytes
// of a ledger file, all of them untrusted. It must not panic, must not
// allocate more than a small multiple of the file — the length is capped
// and held to the file before anything is sized by it — and must fail with
// a descriptive error or accept a ledger that decodes to anomalies Append
// encodes back to exactly its bytes and checksum.
//
// The seeds are the 1,000-anomaly ledger of a version-7 snapshot (the
// anomalies section of the ledger-1000-file corpus entry, which held the
// count and the bytes), its truncations, one flipped byte, and a count
// past what the bytes hold.
func FuzzLedgerLoad(f *testing.F) {
	file := corpusBytes(f, "testdata/fuzz/FuzzCheckpointRead/ledger-1000-file")
	sec := file[headerLen:]
	for range 3 { // past the fingerprint, server and stream sections
		sec = sec[4+binary.LittleEndian.Uint32(sec):]
	}
	n, body := uint64(binary.LittleEndian.Uint32(sec[4:])), sec[8:]
	if n != 1000 {
		f.Fatalf("the ledger-1000-file seed holds %d anomalies", n)
	}
	sum := func(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }
	size := uint64(len(body))
	f.Add(n, size, sum(body), body)
	for _, cut := range []uint64{size - 1, size / 2, 100, 0} {
		f.Add(n, cut, sum(body[:cut]), body[:cut])         // a cut the snapshot counts
		f.Add(n, size, sum(body), bytes.Clone(body[:cut])) // a file shorter than its snapshot
	}
	flipped := bytes.Clone(body)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(n, size, sum(body), flipped)    // the snapshot's checksum
	f.Add(n, size, sum(flipped), flipped) // a checksum that holds: the one-pass check
	f.Add(n+1, size, sum(body), body)     // one more than the bytes hold
	f.Add(uint64(1<<31), size, sum(body), body)
	f.Add(uint64(0), uint64(0), uint32(0), []byte{})
	f.Fuzz(func(t *testing.T, count, length uint64, crc uint32, data []byte) {
		if count > 1<<32-1 {
			count %= 1 << 32 // a snapshot holds a uint32 count
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ods, err := checkLedger(int(count), int64(length), crc, data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10); got > limit {
			t.Fatalf("checking a %d-byte ledger allocated %d bytes (limit %d)", len(data), got, limit)
		}
		if err != nil {
			checkFailure(t, err)
			return
		}
		// Adopted as a restored ledger is: a copy of the bytes counted.
		l := Ledger{n: int(count), ods: ods, crc: crc, w: writer{buf: bytes.Clone(data[:length])}}
		anoms, err := l.Anomalies()
		if err != nil {
			t.Fatal(err)
		}
		again := ledgerOf(anoms...)
		if again.n != l.n || again.ods != l.ods || again.crc != l.crc || !bytes.Equal(again.w.buf, l.w.buf) {
			t.Fatalf("a checked ledger of %d anomalies does not decode to what it holds", l.n)
		}
	})
}

// TestDecodeKeepsNoInputBytes: a decoded state shares no byte with the file
// it was decoded from. Overwriting the file after the decode must leave the
// state encoding to exactly the file's bytes.
func TestDecodeKeepsNoInputBytes(t *testing.T) {
	for _, st := range []*State{sampleState(), randomState(t, 3)} {
		var buf bytes.Buffer
		if err := Write(&buf, st); err != nil {
			t.Fatal(err)
		}
		orig := bytes.Clone(buf.Bytes())
		file := buf.Bytes()
		got, err := decode(file)
		if err != nil {
			t.Fatal(err)
		}
		for i := range file {
			file[i] = ^file[i]
		}
		var again bytes.Buffer
		if err := Write(&again, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), orig) {
			t.Fatal("a decoded state changed when the bytes it was decoded from were overwritten")
		}
	}
}
