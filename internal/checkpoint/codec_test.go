package checkpoint

// What gob gave for free and a hand-written codec has to prove: that every
// field travels (the reflection-driven round trip), that the bytes do not
// drift without a Version bump (the golden file), that the writer and the
// reader allocate what they should (AllocsPerRun), and that a payload with a
// valid checksum and a hostile inside is turned away before it is believed.

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"netwide"
)

// fillLen is the length of every slice, map and string fillRandom makes: one
// length everywhere keeps matrices rectangular and lets the fingerprint's
// shape fields agree with the vectors.
const fillLen = 3

// fillRandom sets every field reachable from v to a non-zero random value.
// A kind it does not know fails the test: a new field of that kind needs a
// case here as much as it needs a line in the codec.
func fillRandom(t *testing.T, rng *rand.Rand, v reflect.Value, path string) {
	t.Helper()
	if l, ok := v.Addr().Interface().(*Ledger); ok {
		var anoms []netwide.Anomaly
		fillRandom(t, rng, reflect.ValueOf(&anoms).Elem(), path+"[]")
		l.Append(anoms...)
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		n := 1 + rng.Int63n(1<<40)
		if rng.Intn(2) == 0 {
			n = -n
		}
		v.SetInt(n)
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1 + rng.Uint64()%(uint64(1)<<v.Type().Bits()-1))
	case reflect.Float64:
		v.SetFloat(rng.NormFloat64() + 10)
	case reflect.String:
		b := make([]byte, fillLen)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		v.SetString(string(b))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), fillLen, fillLen))
		for i := 0; i < fillLen; i++ {
			fillRandom(t, rng, v.Index(i), path+"[]")
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for v.Len() < fillLen {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fillRandom(t, rng, k, path+"[key]")
			fillRandom(t, rng, e, path+"[value]")
			v.SetMapIndex(k, e)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillRandom(t, rng, v.Elem(), path)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("%s.%s is unexported: the codec cannot carry it", path, f.Name)
			}
			fillRandom(t, rng, v.Field(i), path+"."+f.Name)
		}
	default:
		t.Fatalf("%s: fillRandom does not know kind %v; teach it, and the codec", path, v.Kind())
	}
}

// randomState is a State with every field set and the few the decoder
// cross-checks made to agree: the fingerprint's shape, the lanes' K, and the
// length of their row-major components (fillLen rows of fillLen).
func randomState(t *testing.T, seed int64) *State {
	t.Helper()
	st := &State{}
	fillRandom(t, rand.New(rand.NewSource(seed)), reflect.ValueOf(st).Elem(), "State")
	st.Version = Version
	st.ODPairs, st.Measures = fillLen, fillLen
	for i := range st.Stream.Lanes {
		ms := &st.Stream.Lanes[i].Model
		ms.Opts.K = st.K
		comps := make([]float64, fillLen*fillLen)
		for j := range comps {
			comps[j] = ms.Components[j%fillLen] + float64(j)
		}
		ms.Components = comps
	}
	return st
}

// TestCodecRoundTripsEveryField is the test that fails when someone adds a
// field to State, or to any type nested in it in any package, and forgets
// codec.go: the field is filled here, dropped by the writer, and comes back
// zero.
func TestCodecRoundTripsEveryField(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		st := randomState(t, seed)
		var buf bytes.Buffer
		if err := Write(&buf, st); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !sameState(got, st) {
			t.Fatalf("seed %d: a field did not survive Write -> Read:\n got %+v\nwant %+v", seed, got, st)
		}
		// The ledger's count and checksum came back; each anomaly's fields
		// must come back from its bytes.
		var want []netwide.Anomaly
		fillRandom(t, rand.New(rand.NewSource(seed)), reflect.ValueOf(&want).Elem(), "[]Anomaly")
		l := ledgerOf(want...)
		if anoms, err := l.Anomalies(); err != nil || !reflect.DeepEqual(anoms, want) {
			t.Fatalf("seed %d: an anomaly field did not survive Append -> Anomalies (%v):\n got %+v\nwant %+v", seed, err, anoms, want)
		}
	}
}

// TestGoldenBytes pins the format: sampleState must encode to exactly the
// bytes in testdata/sample_v8.hex. If this fails the format changed — bump
// Version (files written before the change must cold-start, not misdecode),
// then replace the file with the hex this test prints.
func TestGoldenBytes(t *testing.T) {
	golden, err := os.ReadFile("testdata/sample_v8.hex")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.Join(strings.Fields(string(golden)), ""))
	if err != nil {
		t.Fatal(err)
	}
	got := savedBytes(t)
	if !bytes.Equal(got, want) {
		var wrapped strings.Builder
		for h := hex.EncodeToString(got); len(h) > 0; h = h[min(64, len(h)):] {
			wrapped.WriteString(h[:min(64, len(h))] + "\n")
		}
		t.Fatalf("format drift: sampleState no longer encodes to testdata/sample_v8.hex (%d bytes, golden %d). Bump Version, then store:\n%s",
			len(got), len(want), wrapped.String())
	}
	if v := binary.LittleEndian.Uint32(want[offVersion:]); v != Version {
		t.Fatalf("golden file is version %d, Version is %d: regenerate it", v, Version)
	}
}

func TestWriteRefusesWhatTheFormatCannotHold(t *testing.T) {
	for name, spoil := range map[string]func(*State){
		"ragged":     func(st *State) { st.Stream.Lanes[0].Window[1] = []float64{1} },
		"empty rows": func(st *State) { st.Stream.Lanes[0].Tracker.Axes = [][]float64{{}, {}} },
		"not a whole number": func(st *State) {
			st.Stream.Lanes[0].Model.Eigenvalues = []float64{2.5, 1}
			st.Stream.Lanes[0].Model.Components = []float64{0.6, 0.8, 1}
		},
	} {
		st := sampleState()
		spoil(st)
		var buf bytes.Buffer
		if err := Write(&buf, st); err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("%s matrix: %v", name, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("%s matrix: %d bytes written before the refusal", name, buf.Len())
		}
	}
}

// TestReadChecksShapesBeforeAllocating hands the payload decoder what Write
// would never produce, behind a header that verifies: counts the bytes cannot
// back, shapes the fingerprint contradicts, sections that do not add up.
func TestReadChecksShapesBeforeAllocating(t *testing.T) {
	valid := savedBytes(t)[headerLen:]
	sections := func() (off [4]int) { // offset of each section's length prefix
		at := 0
		for i := range off {
			off[i] = at
			at += 4 + int(binary.LittleEndian.Uint32(valid[at:]))
		}
		return off
	}()
	patch := func(at int, v uint32) []byte {
		p := bytes.Clone(valid)
		binary.LittleEndian.PutUint32(p[at:], v)
		return p
	}
	reencode := func(f func(*State)) []byte {
		st := sampleState()
		f(st)
		var buf bytes.Buffer
		if err := Write(&buf, st); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()[headerLen:]
	}
	openBins := sections[1] + 4 + 13*8 // the open-bin count
	// The writer lays a basis out as one row per mean value, so a basis
	// the fingerprint contradicts is patched in: sampleState's 2 x 1
	// components (0.6, 0.8) become 1 x 2.
	basis := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 2), 1), math.Float64bits(0.6))
	at := bytes.Index(valid, basis)
	if at < 0 {
		t.Fatal("sampleState's basis is not in its payload")
	}
	components1x2 := patch(at+4, 2)
	binary.LittleEndian.PutUint32(components1x2[at:], 1)
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"empty payload", nil, "fingerprint"},
		{"section longer than the payload", patch(sections[0], 1<<30), "remain"},
		{"section shorter than its content", patch(sections[0], 3), "fingerprint"},
		{"four billion open bins", patch(openBins, 0xFFFFFFFF), "open bins"},
		{"bytes after the last section", append(bytes.Clone(valid), 0, 0), "after the last section"},
		{"lane count against measures", reencode(func(st *State) { st.Measures = 2 }), "lanes"},
		{"mean against OD pairs", reencode(func(st *State) {
			st.Stream.Lanes[0].Model.Mean = []float64{1, 2, 3}
			st.Stream.Lanes[0].Model.Components = []float64{0.6, 0.8, 1}
		}), "values, the fingerprint fixes 2"},
		{"components against OD pairs", components1x2, "rows, the fingerprint fixes 2"},
		{"window against OD pairs", reencode(func(st *State) { st.Stream.Lanes[0].Window = [][]float64{{1, 2, 3}} }), "columns, the fingerprint fixes 2"},
		{"tracker axes against OD pairs", reencode(func(st *State) { st.Stream.Lanes[0].Tracker.Axes = [][]float64{{1}} }), "tracker axes"},
		{"open bin against OD pairs", reencode(func(st *State) { st.Server.OpenBins[0].Flows = []float64{1} }), "open-bin flows"},
		{"lane K against the fingerprint", reencode(func(st *State) { st.K = 3 }), "K=1"},
	}
	for _, tc := range cases {
		_, err := decode(envelope(tc.payload))
		if err == nil {
			t.Fatalf("%s: read silently", tc.name)
		}
		if !strings.HasPrefix(err.Error(), "checkpoint: ") || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestCodecAllocations: once its buffer has grown, the Encoder the daemon's
// writer goroutine keeps allocates nothing for a snapshot; and what Read
// allocates is fixed by the snapshot's shape, not by the values in it.
func TestCodecAllocations(t *testing.T) {
	st := randomState(t, 1)
	var enc Encoder
	if n := testing.AllocsPerRun(20, func() {
		if err := enc.Write(io.Discard, st); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("a warm Encoder.Write allocates %.0f times, want at most 2", n)
	}

	readAllocs := func(st *State) float64 {
		var buf bytes.Buffer
		if err := Write(&buf, st); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := decode(buf.Bytes()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := readAllocs(randomState(t, 1)), readAllocs(randomState(t, 2)); a != b {
		t.Fatalf("decoding two snapshots of one shape allocates %.0f and %.0f times", a, b)
	}
	// The ledger is checked and adopted, never decoded: its length moves
	// no allocation.
	withLedger := func(n int) *State {
		st := sampleState()
		st.Anomalies = Ledger{}
		for i := range n {
			st.Anomalies.Append(randomAnomaly(rand.New(rand.NewSource(int64(i)))))
		}
		return st
	}
	if a, b := readAllocs(withLedger(1)), readAllocs(withLedger(1000)); a != b {
		t.Fatalf("decoding a 1-anomaly snapshot allocates %.0f times, a 1,000-anomaly one %.0f", a, b)
	}
}

// randomAnomaly draws an anomaly of the shapes a ledger holds, the edges
// among them: empty strings, no ODs, negative bins.
func randomAnomaly(rng *rand.Rand) netwide.Anomaly {
	word := func() string {
		b := make([]byte, rng.Intn(4)*rng.Intn(6))
		for i := range b {
			b[i] = byte(' ' + rng.Intn(95))
		}
		return string(b)
	}
	a := netwide.Anomaly{
		Class: word(), Measures: word(),
		StartBin: rng.Intn(4000) - 200, EndBin: rng.Intn(1 << 20), Duration: time.Duration(rng.Int63()),
		Why: word(), Truth: word(), TruthType: word(),
	}
	for range rng.Intn(4) {
		a.ODs = append(a.ODs, word())
	}
	return a
}

// refAnomalies is the field-by-field decoder that read the anomalies
// section until the ledger was kept encoded, given the count the snapshot
// holds: the oracle for the one-pass check and for Ledger.Anomalies.
func refAnomalies(r *reader, n int) []netwide.Anomaly {
	if !r.fits(uint32(n), "anomalies", minAnomaly) || n == 0 {
		return nil
	}
	out := make([]netwide.Anomaly, n)
	for i := range out {
		a := &out[i]
		a.Class = r.str("class")
		a.Measures = r.str("measures")
		a.StartBin = r.int()
		a.EndBin = r.int()
		a.Duration = time.Duration(r.u64())
		if n := r.count("anomaly ODs", 4); n > 0 {
			a.ODs = make([]string, n)
		}
		for j := range a.ODs {
			a.ODs[j] = r.str("OD name")
		}
		a.Why = r.str("why")
		a.Truth = r.str("truth")
		a.TruthType = r.str("truth type")
	}
	return out
}

// leftover fails r, as checkLedger does, when bytes follow the anomalies.
func leftover(r *reader) {
	if r.err == nil && r.off != len(r.buf) {
		r.failf("%d bytes left over", len(r.buf)-r.off)
	}
}

// sameLedgerRead reads the n anomalies of one ledger file both ways: the
// one-pass check must refuse exactly where the field-by-field decoder
// does, with the same error, and what it accepts must decode to what that
// decoder returned.
func sameLedgerRead(t *testing.T, what string, n int, b []byte) (refused bool) {
	t.Helper()
	ref := reader{buf: b, name: "ledger"}
	want := refAnomalies(&ref, n)
	leftover(&ref)
	got := reader{buf: b, name: "ledger"}
	ods := got.ledger(n)
	leftover(&got)
	if fmt.Sprint(ref.err) != fmt.Sprint(got.err) {
		t.Fatalf("%s: the field-by-field decoder says %v, the one-pass check %v", what, ref.err, got.err)
	}
	// And through checkLedger, behind a length and a checksum that hold.
	if _, err := checkLedger(n, int64(len(b)), crc32.Checksum(b, castagnoli), b); int64(n) <= int64(len(b))/minAnomaly && (n > 0 || len(b) == 0) && fmt.Sprint(err) != fmt.Sprint(ref.err) {
		t.Fatalf("%s: checkLedger says %v, the field-by-field decoder %v", what, err, ref.err)
	}
	if ref.err != nil {
		return true
	}
	l := Ledger{n: n, ods: ods, w: writer{buf: b}}
	if anoms, err := l.Anomalies(); err != nil || len(anoms) != len(want) || !reflect.DeepEqual(anoms, want) {
		t.Fatalf("%s: the checked ledger decodes to\n%+v (%v)\nthe field-by-field decoder read\n%+v", what, anoms, err, want)
	}
	if again := ledgerOf(want...); !bytes.Equal(again.w.buf, b) || again.n != n || again.ods != ods {
		t.Fatalf("%s: the checked ledger is not the one Append builds from its anomalies", what)
	}
	return false
}

// TestLedgerMatchesReference: the one-pass check, checkLedger and
// Ledger.Anomalies against refAnomalies, on sampleState's ledger and every
// truncation of it, on random ledgers (empty strings, no-OD anomalies, 10k
// entries) and on those ledgers with bytes flipped and cut and counts
// moved.
func TestLedgerMatchesReference(t *testing.T) {
	sample := sampleState().Anomalies
	if sameLedgerRead(t, "sample", sample.n, sample.w.buf) {
		t.Fatal("sampleState's ledger is refused")
	}
	refusals := 0
	for n := range len(sample.w.buf) {
		if sameLedgerRead(t, fmt.Sprintf("sample cut to %d bytes", n), sample.n, sample.w.buf[:n]) {
			refusals++
		}
	}
	if refusals != len(sample.w.buf) {
		t.Fatalf("%d of %d cuts of the sample ledger read", len(sample.w.buf)-refusals, len(sample.w.buf))
	}

	rng := rand.New(rand.NewSource(42))
	for _, size := range []int{0, 1, 2, 7, 100, 10_000} {
		anoms := make([]netwide.Anomaly, size)
		for i := range anoms {
			anoms[i] = randomAnomaly(rng)
		}
		if size == 100 {
			anoms[3], anoms[4] = netwide.Anomaly{}, netwide.Anomaly{ODs: []string{""}} // nothing but zeros
		}
		var l Ledger
		starts := make([]int, size) // where each anomaly's bytes begin
		for i := range anoms {
			starts[i] = len(l.w.buf)
			l.Append(anoms[i])
		}
		if got, err := l.Anomalies(); err != nil || !reflect.DeepEqual(got, anoms) && size > 0 {
			t.Fatalf("%d anomalies: Append -> Anomalies changed them (%v)", size, err)
		}
		if l.crc != crc32.Checksum(l.w.buf, castagnoli) {
			t.Fatalf("%d anomalies: the running checksum is not the bytes' checksum", size)
		}
		body := l.w.buf
		if sameLedgerRead(t, fmt.Sprintf("%d random anomalies", size), size, body) {
			t.Fatalf("%d random anomalies refused", size)
		}
		if size > 100 || size == 0 {
			continue
		}
		// Every cut, with the count of the anomalies begun before it, so
		// that the count check passes and the cut lands in a field.
		for n := 1; n < len(body); n++ {
			sameLedgerRead(t, fmt.Sprintf("%d random anomalies cut to %d bytes", size, n), sort.SearchInts(starts, n), body[:n])
		}
		for trial := range 200 {
			bad, n := bytes.Clone(body), size
			switch trial % 4 {
			case 0: // a flipped byte, often in a count or a length
				bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
			case 1: // a count or length set past the end
				at := rng.Intn(len(bad) - 3)
				binary.LittleEndian.PutUint32(bad[at:], uint32(rng.Intn(len(bad)+8)))
			case 2: // a cut, or bytes left over
				if rng.Intn(2) == 0 {
					bad = bad[:rng.Intn(len(bad))]
				} else {
					bad = append(bad, make([]byte, 1+rng.Intn(40))...)
				}
			case 3: // the snapshot's count off by a few
				n = max(0, n+rng.Intn(7)-3)
			}
			sameLedgerRead(t, fmt.Sprintf("%d random anomalies, trial %d", size, trial), n, bad)
		}
	}
}
