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
	"io"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
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
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("seed %d: a field did not survive Write -> Read:\n got %+v\nwant %+v", seed, got, st)
		}
	}
}

// TestGoldenBytes pins the format: sampleState must encode to exactly the
// bytes in testdata/sample_v6.hex. If this fails the format changed — bump
// Version (files written before the change must cold-start, not misdecode),
// then replace the file with the hex this test prints.
func TestGoldenBytes(t *testing.T) {
	golden, err := os.ReadFile("testdata/sample_v6.hex")
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
		t.Fatalf("format drift: sampleState no longer encodes to testdata/sample_v6.hex (%d bytes, golden %d). Bump Version, then store:\n%s",
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
		{"mean against OD pairs", reencode(func(st *State) { st.Stream.Lanes[0].Model.Mean = []float64{1, 2, 3} }), "values, the fingerprint fixes 2"},
		{"components against OD pairs", reencode(func(st *State) { st.Stream.Lanes[0].Model.Components = []float64{1} }), "rows, the fingerprint fixes 2"},
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

	readAllocs := func(seed int64) float64 {
		var buf bytes.Buffer
		if err := Write(&buf, randomState(t, seed)); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := decode(buf.Bytes()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := readAllocs(1), readAllocs(2); a != b {
		t.Fatalf("decoding two snapshots of one shape allocates %.0f and %.0f times", a, b)
	}
}
