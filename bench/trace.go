package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"time"
)

// span is one timed call into a layer: which call, when, under which
// parent span, and for which bin (-1 when the call has none).
type span struct {
	name       int32
	parent     int32
	bin        int32
	start, end int64 // ns since the tracer started
}

// tracer keeps spans in memory and writes them out when the run ends. It
// is used from one goroutine.
type tracer struct {
	t0    time.Time
	names []string
	index map[string]int32
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), index: map[string]int32{}, spans: make([]span, 0, capacity)}
}

func (t *tracer) nameID(name string) int32 {
	id, ok := t.index[name]
	if !ok {
		id = int32(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = id
	}
	return id
}

// begin opens a span and returns its index (the parent of its children).
func (t *tracer) begin(name int32, parent int32, bin int) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, bin: int32(bin), start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = int64(time.Since(t.t0)) }

func (t *tracer) durNs(i int32) float64 { return float64(t.spans[i].end - t.spans[i].start) }

// durationsNs returns the duration of every span with the given name.
func (t *tracer) durationsNs(name string) []float64 {
	id, ok := t.index[name]
	if !ok {
		return nil
	}
	var out []float64
	for i := range t.spans {
		if t.spans[i].name == id {
			out = append(out, float64(t.spans[i].end-t.spans[i].start))
		}
	}
	return out
}

// write stores the trace as JSON: the span names once, then one row per
// span, [name index, start ns, end ns, parent span index or -1, bin or -1].
func (t *tracer) write(path, workload string, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"bin\"],\"names\":[", workload, seed)
	for i, n := range t.names {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(strconv.Quote(n))
	}
	w.WriteString("],\"spans\":[\n")
	var buf []byte
	for i, s := range t.spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, int64(s.name), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.bin), 10)
		buf = append(buf, ']')
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
