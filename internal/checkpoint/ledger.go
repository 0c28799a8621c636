package checkpoint

import (
	"encoding/binary"
	"time"

	"netwide"
)

// Ledger is the characterized-anomaly ledger, held in its snapshot
// encoding: each anomaly is encoded once, when it is appended. A snapshot
// copies the bytes as they are, and a restore checks them in one pass and
// adopts them; only Anomalies decodes, for whoever reads the ledger. The
// zero value is an empty ledger.
//
// A ledger only grows. A copy of a Ledger value shares its bytes, so copy
// it with View, which caps the copy: an Append to either side then never
// writes into bytes the other can see.
type Ledger struct {
	n, ods int // anomalies, and OD names across them
	// w.buf is the anomalies section after its count: each anomaly's
	// fields in the order Append writes them. w.err is why the first
	// anomaly that does not fit the format was left out; every snapshot
	// of the ledger then fails with it.
	w writer
}

// Append encodes each anomaly onto the end of the ledger. An anomaly the
// format cannot hold (a string or an OD list of 4 GiB entries or more) is
// left out, and the error is kept for the snapshot writer.
func (l *Ledger) Append(anoms ...netwide.Anomaly) {
	w := &l.w
	for i := range anoms {
		a := &anoms[i]
		at, err := len(w.buf), w.err
		w.err = nil
		w.str(a.Class)
		w.str(a.Measures)
		w.int(a.StartBin)
		w.int(a.EndBin)
		w.u64(uint64(a.Duration))
		w.count(len(a.ODs))
		for _, od := range a.ODs {
			w.str(od)
		}
		w.str(a.Why)
		w.str(a.Truth)
		w.str(a.TruthType)
		if w.err != nil {
			w.buf = w.buf[:at]
			if err == nil {
				err = w.err
			}
		} else {
			l.n++
			l.ods += len(a.ODs)
		}
		w.err = err
	}
}

// Len returns the number of anomalies on the ledger.
func (l *Ledger) Len() int { return l.n }

// View returns the ledger as it stands, sharing its bytes and capped so
// that an Append to l or to the view never reaches the other.
func (l *Ledger) View() Ledger {
	v := *l
	v.w.buf = v.w.buf[:len(v.w.buf):len(v.w.buf)]
	return v
}

// Anomalies decodes the ledger, oldest first. Every string is cut from one
// copy of the bytes and every OD list from one array, so a decode
// allocates at most three times however long the ledger is. The bytes were
// either appended or checked on restore, so the decode has nothing to
// refuse.
func (l *Ledger) Anomalies() []netwide.Anomaly {
	if l.n == 0 {
		return nil
	}
	b := l.w.buf
	text := string(b)
	out := make([]netwide.Anomaly, l.n)
	ods := make([]string, l.ods)
	off := 0
	u32 := func() int {
		off += 4
		return int(binary.LittleEndian.Uint32(b[off-4:]))
	}
	u64 := func() uint64 {
		off += 8
		return binary.LittleEndian.Uint64(b[off-8:])
	}
	str := func() string {
		n := u32()
		off += n
		return text[off-n : off]
	}
	for i := range out {
		a := &out[i]
		a.Class = str()
		a.Measures = str()
		a.StartBin = int(int64(u64()))
		a.EndBin = int(int64(u64()))
		a.Duration = time.Duration(u64())
		if k := u32(); k > 0 {
			a.ODs, ods = ods[:k:k], ods[k:]
			for j := range a.ODs {
				a.ODs[j] = str()
			}
		}
		a.Why = str()
		a.Truth = str()
		a.TruthType = str()
	}
	return out
}

// ledger writes the anomalies section: the count, then the bytes as the
// ledger holds them.
func (w *writer) ledger(l *Ledger) {
	if l.w.err != nil && w.err == nil {
		w.err = l.w.err
	}
	w.count(l.n)
	w.buf = append(w.buf, l.w.buf...)
}

// ledger checks the anomalies section in one pass and adopts its bytes as
// the ledger. It makes every check the field-by-field decoder makes: the
// anomaly count against the bytes left (each anomaly takes at least
// minAnomaly), every string's length, each OD count and each int's range,
// and a failure carries that decoder's message and byte offset. On the way
// it calls nothing per field and allocates nothing. The section is r's own
// (decode reads into a buffer it owns), and the adopted bytes are capped,
// so the first Append moves them.
func (r *reader) ledger() Ledger {
	if r.err != nil {
		return Ledger{}
	}
	b := r.buf
	// fault has r repeat, with its own methods, the read that failed at
	// off: a count of what, of elements of at least elem bytes, or with
	// elem 0 an int. r then fails it as the field-by-field decoder does.
	fault := func(off int, what string, elem int) Ledger {
		r.off = off
		if elem == 0 {
			r.int()
		} else {
			r.count(what, elem)
		}
		if r.err == nil {
			r.failf("the one-pass check refused %s, the reader did not", what)
		}
		return Ledger{}
	}
	n, ok := countAt(b, 0, minAnomaly)
	if !ok {
		return fault(0, "anomalies", minAnomaly)
	}
	off, ods := 4, 0
	for range n {
		for _, what := range [...]string{"class", "measures"} {
			k, ok := countAt(b, off, 1)
			if !ok {
				return fault(off, what, 1)
			}
			off += 4 + k
		}
		// StartBin and EndBin, which must fit an int, and Duration.
		for j, at := range [...]int{off, off + 8, off + 16} {
			if len(b)-at < 8 {
				return fault(at, "", 0)
			}
			if v := int64(binary.LittleEndian.Uint64(b[at:])); j < 2 && int64(int(v)) != v {
				return fault(at, "", 0)
			}
		}
		off += 3 * 8
		k, ok := countAt(b, off, 4)
		if !ok {
			return fault(off, "anomaly ODs", 4)
		}
		off, ods = off+4, ods+k
		for range k {
			j, ok := countAt(b, off, 1)
			if !ok {
				return fault(off, "OD name", 1)
			}
			off += 4 + j
		}
		for _, what := range [...]string{"why", "truth", "truth type"} {
			j, ok := countAt(b, off, 1)
			if !ok {
				return fault(off, what, 1)
			}
			off += 4 + j
		}
	}
	r.off = off
	if n == 0 {
		return Ledger{}
	}
	return Ledger{n: n, ods: ods, w: writer{buf: b[4:off:off]}}
}

// countAt reads the count at off and checks it as reader.count does: ok
// when the bytes after it can hold that many elements of elem bytes each.
func countAt(b []byte, off, elem int) (n int, ok bool) {
	if len(b)-off < 4 {
		return 0, false
	}
	c := binary.LittleEndian.Uint32(b[off:])
	return int(c), uint64(c) <= uint64((len(b)-off-4)/elem)
}
