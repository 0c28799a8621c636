package checkpoint

// The snapshot codec: one hand-written, flat, little-endian layout for State
// and everything nested in it. DESIGN.md E22 has the byte layout as a table;
// the rules are few:
//
//   - integers are fixed width: uint8/16/32/64 as themselves, int and
//     time.Duration as int64, bool as one byte that must be 0 or 1;
//   - float64 is its IEEE-754 bits as a uint64;
//   - a string or slice is a uint32 count followed by its elements, a
//     [][]float64 a uint32 row count, a uint32 column count and rows*cols
//     floats in one run (it must be rectangular), a map its entries in
//     ascending key order;
//   - the payload is four sections — fingerprint, server, stream, anomalies —
//     each a uint32 byte length followed by exactly that many bytes.
//
// A field added to State or a nested type needs a line in the writer and the
// reader below and a Version bump; TestCodecRoundTripsEveryField fails until
// it has them. The anomalies section is the exception: the ledger keeps it
// encoded, and its writer, check and decoder are in ledger.go.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"netwide"
	"netwide/internal/dataset"
	"netwide/internal/engine"
	"netwide/internal/events"
)

// writer appends the encoding to buf. Its only failure is a value the format
// cannot hold (a ragged matrix, a count past uint32); the first is kept.
type writer struct {
	buf  []byte
	keys []int // map-key scratch, kept between snapshots
	err  error
}

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) int(v int)    { w.u64(uint64(int64(v))) }
func (w *writer) f64(v float64) {
	w.u64(math.Float64bits(v))
}

func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) count(n int) {
	if uint64(n) > math.MaxUint32 && w.err == nil {
		w.err = fmt.Errorf("checkpoint: encode: %d elements do not fit a uint32 count", n)
	}
	w.u32(uint32(n))
}

func (w *writer) str(s string) {
	w.count(len(s))
	w.buf = append(w.buf, s...)
}

func (w *writer) bytes(b []uint8) {
	w.count(len(b))
	w.buf = append(w.buf, b...)
}

func (w *writer) u32s(v []uint32) {
	w.count(len(v))
	for _, x := range v {
		w.u32(x)
	}
}

func (w *writer) ints(v []int) {
	w.count(len(v))
	for _, x := range v {
		w.int(x)
	}
}

// run appends v's bits with no count in front.
func (w *writer) run(v []float64) {
	at := len(w.buf)
	w.buf = slices.Grow(w.buf, 8*len(v))[:at+8*len(v)]
	for i, x := range v {
		binary.LittleEndian.PutUint64(w.buf[at+8*i:], math.Float64bits(x))
	}
}

func (w *writer) f64s(v []float64) {
	w.count(len(v))
	w.run(v)
}

func (w *writer) matrix(what string, m [][]float64) {
	cols := 0
	if len(m) > 0 {
		cols = len(m[0])
		if cols == 0 && w.err == nil {
			w.err = fmt.Errorf("checkpoint: encode: %s has %d empty rows", what, len(m))
		}
	}
	w.count(len(m))
	w.count(cols)
	for i, row := range m {
		if len(row) != cols {
			if w.err == nil {
				w.err = fmt.Errorf("checkpoint: encode: %s is ragged (row %d has %d values, row 0 has %d)", what, i, len(row), cols)
			}
			return
		}
		w.run(row)
	}
}

// flat writes a row-major matrix of rows rows as matrix lays one out: the
// row count, the column count and one run. The column count is the
// matrix's own, len(v)/rows. An empty one is 0 x 0.
func (w *writer) flat(what string, v []float64, rows int) {
	if len(v) == 0 {
		w.count(0)
		w.count(0)
		return
	}
	if rows <= 0 || len(v)%rows != 0 {
		if w.err == nil {
			w.err = fmt.Errorf("checkpoint: encode: %s has %d values, not a whole number of them in each of %d rows", what, len(v), rows)
		}
		return
	}
	w.count(rows)
	w.count(len(v) / rows)
	w.run(v)
}

// section reserves a length, lets body append, and fills the length in.
func (w *writer) section(body func()) {
	at := len(w.buf)
	w.u32(0)
	body()
	n := len(w.buf) - at - 4
	if uint64(n) > math.MaxUint32 {
		if w.err == nil {
			w.err = fmt.Errorf("checkpoint: encode: a %d-byte section does not fit a uint32 length", n)
		}
		return
	}
	binary.LittleEndian.PutUint32(w.buf[at:], uint32(n))
}

func (w *writer) state(st *State) {
	w.section(func() { w.fingerprint(st) })
	w.section(func() { w.server(&st.Server) })
	w.section(func() { w.stream(&st.Stream) })
	w.section(func() { w.ledger(&st.Anomalies) })
}

func (w *writer) fingerprint(st *State) {
	w.str(st.Topology)
	w.int(st.ODPairs)
	w.int(st.Measures)
	w.int(st.K)
	w.f64(st.Alpha)
	w.u32(st.Epoch)
	w.bytes(st.Formats)
	w.str(st.Updater)
}

func (w *writer) server(sv *ServerState) {
	w.u64(sv.Packets)
	w.u64(sv.BadPackets)
	w.u64(sv.Duplicates)
	w.u64(sv.Records)
	w.u64(sv.LostRecords)
	w.u64(sv.LateRecords)
	w.u64(sv.Unroutable)
	w.u64(sv.WildRecords)
	w.u64(sv.WatermarkResets)
	w.int(sv.BinsClosed)
	w.int(sv.Watermark)
	w.int(sv.LastClosed)
	w.int(sv.AlarmBins)
	w.count(len(sv.OpenBins))
	for i := range sv.OpenBins {
		ob := &sv.OpenBins[i]
		w.int(ob.Bin)
		w.u64(ob.Records)
		w.f64s(ob.Bytes)
		w.f64s(ob.Packets)
		w.f64s(ob.Flows)
	}
	w.count(len(sv.Engines))
	for i := range sv.Engines {
		es := &sv.Engines[i]
		w.u8(es.Format)
		w.u32(es.ID)
		w.u32(es.Next)
		w.u32s(es.Recent)
		w.int(es.Pos)
		w.u64(es.Charged)
	}
	w.int(sv.SealedThrough)
	w.int(sv.BehindStreak)
	w.count(len(sv.Protocols))
	for _, ps := range sv.Protocols {
		w.u8(ps.Format)
		w.u64(ps.Packets)
		w.u64(ps.BadPackets)
		w.u64(ps.Duplicates)
		w.u64(ps.Records)
		w.u64(ps.LostUnits)
	}
	w.count(len(sv.Templates))
	for i := range sv.Templates {
		ts := &sv.Templates[i]
		w.u8(ts.Format)
		w.u32(ts.Source)
		w.u16(ts.ID)
		w.u16(ts.Scope)
		w.count(len(ts.Fields))
		for _, fd := range ts.Fields {
			w.u16(fd.ID)
			w.u32(fd.Enterprise)
			w.u16(fd.Length)
		}
	}
}

func (w *writer) stream(cp *netwide.StreamCheckpoint) {
	w.count(len(cp.Lanes))
	for i := range cp.Lanes {
		us := &cp.Lanes[i]
		w.str(string(us.Kind))
		ms := &us.Model
		w.int(ms.Opts.K)
		w.f64(ms.Opts.Alpha)
		w.u64(ms.Gen)
		w.u64(ms.Updates)
		w.f64(ms.QLimit)
		w.f64(ms.T2Limit)
		w.int(ms.N)
		w.f64(ms.TotalVar)
		w.f64s(ms.Mean)
		w.f64s(ms.Eigenvalues)
		w.flat("model components", ms.Components, len(ms.Mean))
		w.matrix("rolling window", us.Window)
		w.int(us.Since)
		w.bool(us.Tracker != nil)
		if tr := us.Tracker; tr != nil {
			w.int(tr.N)
			w.int(tr.Horizon)
			w.f64(tr.TotalVar)
			w.f64s(tr.Mean)
			w.matrix("tracker axes", tr.Axes)
		}
	}
	w.count(len(cp.Agg.Open))
	for i := range cp.Agg.Open {
		w.event(&cp.Agg.Open[i])
	}
	w.int(cp.Agg.CurBin)
	w.count(len(cp.Agg.CurDets))
	for i := range cp.Agg.CurDets {
		d := &cp.Agg.CurDets[i]
		w.int(int(d.Measure))
		w.int(d.Bin)
		w.ints(d.ODs)
		w.f64s(d.Residuals)
	}
	w.bool(cp.Agg.Started)
	w.int(cp.LastBin)
	w.bool(cp.Started)
	w.u64(cp.Emitted)
}

func (w *writer) event(ev *events.Event) {
	w.u8(uint8(ev.Measures))
	w.int(ev.StartBin)
	w.int(ev.EndBin)
	w.ints(ev.ODs)
	w.keys = w.keys[:0]
	for od := range ev.ODResidual {
		w.keys = append(w.keys, od)
	}
	slices.Sort(w.keys)
	w.count(len(w.keys))
	for _, od := range w.keys {
		w.int(od)
		w.f64(ev.ODResidual[od])
	}
}

// reader is a bounded cursor over untrusted bytes. The first failure sticks:
// every later read returns zero values and allocates nothing, so a decode
// function reads straight through and its caller checks err once. No count
// is believed before the bytes it implies are known to be there.
type reader struct {
	buf  []byte
	off  int
	name string // section, for error messages
	err  error
}

func (r *reader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("checkpoint: corrupt %s section at byte %d: %s", r.name, r.off, fmt.Sprintf(format, args...))
	}
}

// take returns the next n bytes, or nil once the reader has failed.
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.buf)-r.off {
		r.failf("need %d bytes, %d remain", n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) u16() uint16 {
	if b := r.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *reader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *reader) int() int {
	v := int64(r.u64())
	if int64(int(v)) != v {
		r.failf("integer %d does not fit this platform's int", v)
		return 0
	}
	return int(v)
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) bool() bool {
	switch v := r.u8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.failf("boolean byte %#x", v)
		return false
	}
}

// count reads an element count and checks it against the bytes left: each
// element takes at least elem encoded bytes, so a count that passes cannot
// make the caller allocate more than a fixed multiple of the input.
func (r *reader) count(what string, elem int) int {
	n := r.u32()
	if r.err == nil && uint64(n) > uint64((len(r.buf)-r.off)/elem) {
		r.failf("%d %s need at least %d bytes, %d remain", n, what, uint64(n)*uint64(elem), len(r.buf)-r.off)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *reader) str(what string) string {
	return string(r.take(r.count(what, 1)))
}

func (r *reader) bytes(what string) []uint8 {
	n := r.count(what, 1)
	if n == 0 {
		return nil
	}
	return slices.Clone(r.take(n))
}

func (r *reader) u32s(what string) []uint32 {
	n := r.count(what, 4)
	if n == 0 {
		return nil
	}
	b := r.take(4 * n)
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

func (r *reader) ints(what string) []int {
	n := r.count(what, 8)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.int()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// run decodes len(dst) floats.
func (r *reader) run(dst []float64) {
	b := r.take(8 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// f64s reads a float vector. want >= 0 is the length the fingerprint fixes
// for it; want < 0 leaves the length to the file.
func (r *reader) f64s(what string, want int) []float64 {
	n := r.count(what, 8)
	if r.err == nil && want >= 0 && n != want {
		r.failf("%s has %d values, the fingerprint fixes %d", what, n, want)
	}
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	r.run(out)
	return out
}

// flat reads a rows x cols matrix into one row-major array and returns it
// with its column count. wantRows / wantCols >= 0 are the dimensions the
// fingerprint fixes (an absent matrix, 0 x 0, is always allowed: windows
// and trackers are optional).
func (r *reader) flat(what string, wantRows, wantCols int) ([]float64, int) {
	nr, nc := r.u32(), r.u32()
	if r.err != nil || (nr == 0 && nc == 0) {
		return nil, 0
	}
	switch {
	case nr == 0 || nc == 0:
		r.failf("%s is %d x %d", what, nr, nc)
	case uint64(nr) > uint64(len(r.buf)-r.off)/8/uint64(nc):
		r.failf("%s of %d x %d values needs more than the %d bytes that remain", what, nr, nc, len(r.buf)-r.off)
	case wantRows >= 0 && int(nr) != wantRows:
		r.failf("%s has %d rows, the fingerprint fixes %d", what, nr, wantRows)
	case wantCols >= 0 && int(nc) != wantCols:
		r.failf("%s has %d columns, the fingerprint fixes %d", what, nc, wantCols)
	}
	if r.err != nil {
		return nil, 0
	}
	v := make([]float64, int(nr)*int(nc))
	r.run(v)
	return v, int(nc)
}

// matrix reads what flat reads as rows over its one backing array, each
// row capped so that an append to it cannot reach the next.
func (r *reader) matrix(what string, wantRows, wantCols int) [][]float64 {
	flat, cols := r.flat(what, wantRows, wantCols)
	if flat == nil {
		return nil
	}
	out := make([][]float64, len(flat)/cols)
	for i := range out {
		out[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return out
}

// section opens the next length-prefixed section as a reader of its own;
// close folds the outcome back.
func (r *reader) section(name string) reader {
	r.name = name
	n := r.count("section bytes", 1)
	return reader{buf: r.take(n), name: name, err: r.err}
}

func (r *reader) close(sec *reader) {
	if sec.err == nil && sec.off != len(sec.buf) {
		sec.failf("%d bytes left over", len(sec.buf)-sec.off)
	}
	if r.err == nil {
		r.err = sec.err
	}
}

// Minimum encoded sizes of the variable-count elements, for reader.count.
const (
	minOpenBin   = 8 + 8 + 3*4
	minEngine    = 1 + 4 + 4 + 4 + 8 + 8
	sizeProto    = 1 + 5*8
	minTemplate  = 1 + 4 + 2 + 2 + 4
	sizeField    = 2 + 4 + 2
	minLane      = 4 + 2*8 + 2*8 + 2*8 + 2*8 + 4 + 4 + 8 + 8 + 8 + 1
	minEvent     = 1 + 8 + 8 + 4 + 4
	minDetection = 8 + 8 + 4 + 4
	sizeResidual = 8 + 8
	minAnomaly   = 4 + 4 + 3*8 + 4 + 3*4
)

func (r *reader) state(st *State) {
	sec := r.section("fingerprint")
	sec.fingerprint(st)
	r.close(&sec)
	if r.err != nil {
		return
	}
	if st.Topology == "" || st.ODPairs <= 0 || st.Measures <= 0 {
		r.err = fmt.Errorf("checkpoint: snapshot missing fingerprint (topology %q, %d OD pairs, %d measures)", st.Topology, st.ODPairs, st.Measures)
		return
	}
	sec = r.section("server")
	sec.server(&st.Server, st.ODPairs)
	r.close(&sec)
	sec = r.section("stream")
	sec.stream(&st.Stream, st)
	r.close(&sec)
	sec = r.section("anomalies")
	st.Anomalies = sec.ledger()
	r.close(&sec)
	if r.err == nil && r.off != len(r.buf) {
		r.name = "payload"
		r.failf("%d bytes after the last section", len(r.buf)-r.off)
	}
}

func (r *reader) fingerprint(st *State) {
	st.Topology = r.str("topology")
	st.ODPairs = r.int()
	st.Measures = r.int()
	st.K = r.int()
	st.Alpha = r.f64()
	st.Epoch = r.u32()
	st.Formats = r.bytes("formats")
	st.Updater = r.str("updater")
}

func (r *reader) server(sv *ServerState, p int) {
	sv.Packets = r.u64()
	sv.BadPackets = r.u64()
	sv.Duplicates = r.u64()
	sv.Records = r.u64()
	sv.LostRecords = r.u64()
	sv.LateRecords = r.u64()
	sv.Unroutable = r.u64()
	sv.WildRecords = r.u64()
	sv.WatermarkResets = r.u64()
	sv.BinsClosed = r.int()
	sv.Watermark = r.int()
	sv.LastClosed = r.int()
	sv.AlarmBins = r.int()
	if n := r.count("open bins", minOpenBin); n > 0 {
		sv.OpenBins = make([]OpenBin, n)
	}
	for i := range sv.OpenBins {
		ob := &sv.OpenBins[i]
		ob.Bin = r.int()
		ob.Records = r.u64()
		ob.Bytes = r.f64s("open-bin bytes", p)
		ob.Packets = r.f64s("open-bin packets", p)
		ob.Flows = r.f64s("open-bin flows", p)
	}
	if n := r.count("engine cursors", minEngine); n > 0 {
		sv.Engines = make([]EngineState, n)
	}
	for i := range sv.Engines {
		es := &sv.Engines[i]
		es.Format = r.u8()
		es.ID = r.u32()
		es.Next = r.u32()
		es.Recent = r.u32s("dedupe ring entries")
		es.Pos = r.int()
		es.Charged = r.u64()
	}
	sv.SealedThrough = r.int()
	sv.BehindStreak = r.int()
	if n := r.count("protocol counters", sizeProto); n > 0 {
		sv.Protocols = make([]ProtoState, n)
	}
	for i := range sv.Protocols {
		ps := &sv.Protocols[i]
		ps.Format = r.u8()
		ps.Packets = r.u64()
		ps.BadPackets = r.u64()
		ps.Duplicates = r.u64()
		ps.Records = r.u64()
		ps.LostUnits = r.u64()
	}
	if n := r.count("templates", minTemplate); n > 0 {
		sv.Templates = make([]TemplateState, n)
	}
	for i := range sv.Templates {
		ts := &sv.Templates[i]
		ts.Format = r.u8()
		ts.Source = r.u32()
		ts.ID = r.u16()
		ts.Scope = r.u16()
		if n := r.count("template fields", sizeField); n > 0 {
			ts.Fields = make([]TemplateField, n)
		}
		for j := range ts.Fields {
			ts.Fields[j] = TemplateField{ID: r.u16(), Enterprise: r.u32(), Length: r.u16()}
		}
	}
}

func (r *reader) stream(cp *netwide.StreamCheckpoint, fp *State) {
	p := fp.ODPairs
	n := r.count("lanes", minLane)
	if r.err == nil && n != fp.Measures {
		r.failf("%d lanes, the fingerprint fixes %d measures", n, fp.Measures)
	}
	if r.err != nil {
		return
	}
	cp.Lanes = make([]engine.UpdaterState, n)
	for i := range cp.Lanes {
		us := &cp.Lanes[i]
		us.Kind = engine.UpdaterKind(r.str("updater kind"))
		ms := &us.Model
		ms.Opts.K = r.int()
		if r.err == nil && ms.Opts.K != fp.K {
			r.failf("lane %d model has K=%d, the fingerprint fixes K=%d", i, ms.Opts.K, fp.K)
		}
		ms.Opts.Alpha = r.f64()
		ms.Gen = r.u64()
		ms.Updates = r.u64()
		ms.QLimit = r.f64()
		ms.T2Limit = r.f64()
		ms.N = r.int()
		ms.TotalVar = r.f64()
		ms.Mean = r.f64s("model mean", p)
		ms.Eigenvalues = r.f64s("model eigenvalues", -1)
		// The basis keeps its own width; engine.Restore holds it to the
		// one a model keeps.
		ms.Components, _ = r.flat("model components", p, -1)
		us.Window = r.matrix("rolling window", -1, p)
		us.Since = r.int()
		if r.bool() {
			tr := &engine.TrackerState{}
			tr.N = r.int()
			tr.Horizon = r.int()
			tr.TotalVar = r.f64()
			tr.Mean = r.f64s("tracker mean", p)
			tr.Axes = r.matrix("tracker axes", -1, p)
			us.Tracker = tr
		}
	}
	if n := r.count("open events", minEvent); n > 0 {
		cp.Agg.Open = make([]events.Event, n)
	}
	for i := range cp.Agg.Open {
		r.event(&cp.Agg.Open[i])
	}
	cp.Agg.CurBin = r.int()
	if n := r.count("buffered detections", minDetection); n > 0 {
		cp.Agg.CurDets = make([]events.Detection, n)
	}
	for i := range cp.Agg.CurDets {
		d := &cp.Agg.CurDets[i]
		d.Measure = dataset.Measure(r.int())
		d.Bin = r.int()
		d.ODs = r.ints("detection ODs")
		d.Residuals = r.f64s("detection residuals", -1)
	}
	cp.Agg.Started = r.bool()
	cp.LastBin = r.int()
	cp.Started = r.bool()
	cp.Emitted = r.u64()
}

func (r *reader) event(ev *events.Event) {
	ev.Measures = events.MeasureSet(r.u8())
	ev.StartBin = r.int()
	ev.EndBin = r.int()
	ev.ODs = r.ints("event ODs")
	n := r.count("event residuals", sizeResidual)
	if n == 0 {
		return
	}
	ev.ODResidual = make(map[int]float64, n)
	for i, prev := 0, 0; i < n; i++ {
		od := r.int()
		if i > 0 && od <= prev {
			r.failf("event residual keys %d, %d not ascending", prev, od)
		}
		ev.ODResidual[od], prev = r.f64(), od
	}
}
