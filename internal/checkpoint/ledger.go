package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"netwide"
	"netwide/internal/fault"
)

// LedgerPath names the ledger file that belongs to the snapshot at path:
// the snapshot's path with ".ledger" appended. The two travel together.
func LedgerPath(path string) string { return path + ".ledger" }

// MaxLedgerSize is the longest ledger a snapshot may count. The length is
// read from the snapshot, so it is held to the cap before anything is
// allocated for it.
const MaxLedgerSize = MaxFileSize

// Ledger is the characterized-anomaly ledger, held in its file encoding:
// each anomaly is encoded once, when it is appended. The bytes live in an
// append-only file beside the snapshot (LedgerPath), and a snapshot
// records only the ledger's anomaly count, byte length and running CRC-32C.
// A restored ledger reads none of its bytes: they stay in the file until
// the first Anomalies call loads, checks and adopts them, once. Anomalies
// appended after the restore are held in memory until a snapshot appends
// them to the file. The zero value is an empty ledger.
//
// A ledger only grows. A copy of a Ledger value shares its bytes, so copy
// it with View, which caps the copy: an Append to either side then never
// writes into bytes the other can see.
type Ledger struct {
	n   int    // anomalies, the restored ones included
	ods int    // OD names across the anomalies in w.buf
	crc uint32 // CRC-32C of every byte of the ledger, the restored ones included
	// w.buf holds the bytes past base: each anomaly's fields in the order
	// Append writes them. w.err is why the first anomaly that does not fit
	// the format was left out; every snapshot of the ledger then fails with
	// it.
	w writer
	// base is the restored prefix, still in the file; nil when the ledger
	// holds every byte in memory.
	base *ledgerBase
}

// ledgerBase is the part of a restored ledger that only the file holds:
// its first n anomalies, size bytes with checksum crc. load reads it once,
// for every view of the ledger.
type ledgerBase struct {
	path string
	n    int
	size int64
	crc  uint32

	once sync.Once
	body []byte // the checked bytes, once loaded
	ods  int
	err  error
}

// Append encodes each anomaly onto the end of the ledger. An anomaly the
// format cannot hold (a string or an OD list of 4 GiB entries or more) is
// left out, and the error is kept for the snapshot writer.
func (l *Ledger) Append(anoms ...netwide.Anomaly) {
	w := &l.w
	start := len(w.buf)
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
	l.crc = crc32.Update(l.crc, castagnoli, w.buf[start:])
}

// Len returns the number of anomalies on the ledger.
func (l *Ledger) Len() int { return l.n }

// size is the ledger's length in bytes, the restored ones included.
func (l *Ledger) size() int64 { return l.baseSize() + int64(len(l.w.buf)) }

// baseSize is the length of the restored prefix the file alone holds.
func (l *Ledger) baseSize() int64 {
	if l.base == nil {
		return 0
	}
	return l.base.size
}

// View returns the ledger as it stands, sharing its bytes and capped so
// that an Append to l or to the view never reaches the other.
func (l *Ledger) View() Ledger {
	v := *l
	v.w.buf = v.w.buf[:len(v.w.buf):len(v.w.buf)]
	return v
}

// Anomalies decodes the ledger, oldest first. A restored ledger's first
// call reads its bytes from the file and checks them against the snapshot
// — length, CRC-32C, then every field in one pass — and a ledger that
// fails is never decoded: every call returns that error. Every string is
// cut from one copy of the bytes and every OD list from one array.
func (l *Ledger) Anomalies() ([]netwide.Anomaly, error) {
	if l.n == 0 {
		return nil, nil
	}
	out := make([]netwide.Anomaly, l.n)
	head := 0
	if b := l.base; b != nil {
		b.once.Do(b.load)
		if b.err != nil {
			return nil, b.err
		}
		decodeLedger(out[:b.n], b.body, b.ods)
		head = b.n
	}
	decodeLedger(out[head:], l.w.buf, l.ods)
	return out, nil
}

// decodeLedger decodes len(out) anomalies from b, which holds them and
// their ods OD names. The bytes were appended or checked, so the decode
// has nothing to refuse.
func decodeLedger(out []netwide.Anomaly, b []byte, ods int) {
	if len(out) == 0 {
		return
	}
	text := string(b)
	names := make([]string, ods)
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
			a.ODs, names = names[:k:k], names[k:]
			for j := range a.ODs {
				a.ODs[j] = str()
			}
		}
		a.Why = str()
		a.Truth = str()
		a.TruthType = str()
	}
}

// load reads the restored prefix from the file and checks it. The file may
// run past it: that is what the ledger appended after the restore.
func (b *ledgerBase) load() {
	b.body, b.ods, b.err = readLedger(b.path, b.n, b.size, b.crc)
}

// readLedger reads the first size bytes of the ledger file at path and
// checks them as checkLedger does. Nothing is allocated for them before the
// file is known to hold them.
func readLedger(path string, n int, size int64, crc uint32) ([]byte, int, error) {
	if path == "" {
		return nil, 0, errors.New("checkpoint: the snapshot was read without its ledger file")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: ledger: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: ledger: %w", err)
	}
	if fi.Size() < size {
		return nil, 0, fmt.Errorf("checkpoint: ledger file %s holds %d bytes, the snapshot counts %d: truncated ledger", path, fi.Size(), size)
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(f, body); err != nil {
		return nil, 0, fmt.Errorf("checkpoint: read ledger %s: %w", path, err)
	}
	ods, err := checkLedger(n, size, crc, body)
	if err != nil {
		return nil, 0, err
	}
	return body, ods, nil
}

// checkLedger checks file, a ledger file, against the snapshot's count n,
// length size and checksum crc: the length against the cap and the file,
// the checksum of the first size bytes, then those bytes in one pass
// (reader.ledger). It returns the OD names across the anomalies. The
// snapshot and the file are both untrusted: a failure is a descriptive
// error, never a panic, and nothing is allocated.
func checkLedger(n int, size int64, crc uint32, file []byte) (ods int, err error) {
	if err := checkMark(n, size, crc); err != nil {
		return 0, err
	}
	if int64(len(file)) < size {
		return 0, fmt.Errorf("checkpoint: ledger file holds %d bytes, the snapshot counts %d: truncated ledger", len(file), size)
	}
	body := file[:size]
	if got := crc32.Checksum(body, castagnoli); got != crc {
		return 0, fmt.Errorf("checkpoint: ledger checksum mismatch over its %d bytes (snapshot %08x, file %08x): corrupt ledger", size, crc, got)
	}
	r := reader{buf: body, name: "ledger"}
	ods = r.ledger(n)
	if r.err == nil && r.off != len(body) {
		r.failf("%d bytes left over", len(body)-r.off)
	}
	return ods, r.err
}

// checkMark checks what a snapshot says of its ledger on its own: a length
// under the cap, room in it for the count, and nothing where there is
// nothing.
func checkMark(n int, size int64, crc uint32) error {
	switch {
	case size < 0 || size > MaxLedgerSize:
		return fmt.Errorf("checkpoint: snapshot counts a %d-byte ledger, over the %d-byte cap", size, MaxLedgerSize)
	case n < 0 || int64(n) > size/minAnomaly:
		return fmt.Errorf("checkpoint: snapshot counts %d anomalies in a %d-byte ledger: corrupt snapshot", n, size)
	case n == 0 && (size != 0 || crc != 0):
		return fmt.Errorf("checkpoint: snapshot counts no anomalies in a %d-byte ledger with checksum %08x: corrupt snapshot", size, crc)
	}
	return nil
}

// ledger writes the anomalies section: what the snapshot knows of the
// ledger — its count, length and checksum. The bytes go to the ledger file
// (Encoder.appendLedger).
func (w *writer) ledger(l *Ledger) {
	if l.w.err != nil && w.err == nil {
		w.err = l.w.err
	}
	w.count(l.n)
	w.u64(uint64(l.size()))
	w.u32(l.crc)
}

// ledgerMark reads the anomalies section as a restored ledger that reads
// none of its bytes. The caller names the file.
func (r *reader) ledgerMark() Ledger {
	n := int(r.u32())
	size := int64(r.u64())
	crc := r.u32()
	if r.err != nil {
		return Ledger{}
	}
	if err := checkMark(n, size, crc); err != nil {
		r.err = err
		return Ledger{}
	}
	if n == 0 {
		return Ledger{}
	}
	return Ledger{n: n, crc: crc, base: &ledgerBase{n: n, size: size, crc: crc}}
}

// ledger checks n anomalies from r.off in one pass and returns the OD names
// across them. It makes every check the field-by-field decoder makes: the
// anomaly count against the bytes left (each anomaly takes at least
// minAnomaly), every string's length, each OD count and each int's range,
// and a failure carries that decoder's message and byte offset. On the way
// it calls nothing per field and allocates nothing.
func (r *reader) ledger(n int) (ods int) {
	if r.err != nil {
		return 0
	}
	b := r.buf
	// fault has r repeat, with its own methods, the read that failed at
	// off: a count of what, of elements of at least elem bytes, or with
	// elem 0 an int. r then fails it as the field-by-field decoder does.
	fault := func(off int, what string, elem int) int {
		r.off = off
		if elem == 0 {
			r.int()
		} else {
			r.count(what, elem)
		}
		if r.err == nil {
			r.failf("the one-pass check refused %s, the reader did not", what)
		}
		return 0
	}
	off := r.off
	if !r.fits(uint32(n), "anomalies", minAnomaly) {
		return 0
	}
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
	return ods
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

// ledgerFile is the Encoder's hold on a ledger file: bytes [0, size) are
// the ledger's and on disk. cut says the file may run past size — the tail
// of a run that died before its next snapshot, or of an append that failed
// — and is truncated back before the next append.
type ledgerFile struct {
	path string
	f    *os.File
	size int64
	cut  bool
}

// appendLedger appends to path the bytes of l that the file does not hold
// yet and fsyncs them, so that no snapshot counts a byte before it is on
// disk. The first append through an Encoder takes the file to hold l's
// restored prefix and nothing else (an empty ledger's: nothing, so a cold
// start cuts the file to 0). A failed append leaves the durable length
// where it was; the next cuts back to it and appends again.
func (e *Encoder) appendLedger(path string, l *Ledger, inj *fault.Injector) error {
	lf := &e.lf
	if lf.path != path {
		e.Close()
		*lf = ledgerFile{path: path, size: l.baseSize(), cut: true}
	}
	end := l.size()
	if end == lf.size {
		return nil
	}
	if end < lf.size || lf.size < l.baseSize() {
		return fmt.Errorf("ledger of %d bytes (%d restored) against the %d its file holds", end, l.baseSize(), lf.size)
	}
	if lf.f == nil {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open ledger: %w", err)
		}
		lf.f = f
		syncDir(path) // the file's name, before any snapshot counts its bytes
	}
	if lf.cut {
		fi, err := lf.f.Stat()
		if err != nil {
			return err
		}
		if fi.Size() < lf.size {
			return fmt.Errorf("ledger file %s holds %d bytes, %d were on disk", path, fi.Size(), lf.size)
		}
		if err := lf.f.Truncate(lf.size); err != nil {
			return fmt.Errorf("cut ledger: %w", err)
		}
	}
	lf.cut = true // until the bytes are on disk
	_, err := inj.Writer(FaultLedgerWrite, lf.f).Write(l.w.buf[lf.size-l.baseSize():])
	if err == nil {
		err = inj.Fire(FaultLedgerSync)
	}
	if err == nil {
		err = lf.f.Sync()
	}
	if err != nil {
		return fmt.Errorf("append ledger: %w", err)
	}
	lf.size, lf.cut = end, false
	return nil
}

// Close closes the ledger file the Encoder keeps open between snapshots,
// if any.
func (e *Encoder) Close() {
	if e.lf.f != nil {
		e.lf.f.Close()
	}
	e.lf = ledgerFile{}
}

// syncDir fsyncs the directory holding path. Best effort: some filesystems
// refuse directory fsync, and the data is already safe in the file.
func syncDir(path string) {
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
}
