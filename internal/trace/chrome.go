// Chrome trace-event JSON export. The writer is hand-rolled rather than
// encoding/json so the byte stream is fully deterministic: fixed field
// order, integer microsecond timestamps, attrs emitted in recorded
// order, and a JSON string escaper (strconv.Quote produces Go escapes
// like \x1f that JSON parsers reject). The output loads in Perfetto and
// chrome://tracing.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"
)

// WriteChromeJSON writes spans as a Chrome trace-event document:
// complete ("X") events, pid 1, tid from the span, ts/dur in integer
// microseconds offset from the earliest span start. Identical span
// slices produce identical bytes.
func WriteChromeJSON(w io.Writer, spans []Span) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	epoch := earliestStart(spans)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	buf := make([]byte, 0, 256)
	for i, s := range spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',', '\n')
		}
		buf = appendEvent(buf, epoch, s)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteChromeJSON exports the tracer's merged spans.
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	return WriteChromeJSON(w, t.Spans())
}

// WriteChromeFile exports the tracer's merged spans to a new file at
// path.
func (t *Tracer) WriteChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = t.WriteChromeJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func earliestStart(spans []Span) time.Time {
	var epoch time.Time
	for i, s := range spans {
		if i == 0 || s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	return epoch
}

func appendEvent(b []byte, epoch time.Time, s Span) []byte {
	b = append(b, `{"ph":"X","pid":1,"tid":`...)
	b = strconv.AppendInt(b, s.TID, 10)
	b = append(b, `,"ts":`...)
	b = strconv.AppendInt(b, s.Start.Sub(epoch).Microseconds(), 10)
	b = append(b, `,"dur":`...)
	dur := s.Dur.Microseconds()
	if dur < 0 {
		dur = 0
	}
	b = strconv.AppendInt(b, dur, 10)
	b = append(b, `,"cat":`...)
	b = appendJSONString(b, s.Cat)
	b = append(b, `,"name":`...)
	b = appendJSONString(b, s.Name)
	b = append(b, `,"args":{"span_id":`...)
	b = appendJSONString(b, fmt.Sprintf("%016x", uint64(s.ID)))
	if s.Parent != 0 {
		b = append(b, `,"parent_id":`...)
		b = appendJSONString(b, fmt.Sprintf("%016x", uint64(s.Parent)))
	}
	for _, a := range s.Attrs {
		b = append(b, ',')
		b = appendJSONString(b, a.Key)
		b = append(b, ':')
		b = appendJSONString(b, a.Val)
	}
	b = append(b, '}', '}')
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal. Quotes,
// backslashes, and control characters are escaped; everything else
// (including non-ASCII UTF-8) passes through byte-for-byte, which is
// valid JSON and keeps the output stable.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\t':
			b = append(b, '\\', 't')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// catStat accumulates the per-category rollup for Summary.
type catStat struct {
	n       int
	total   time.Duration
	max     time.Duration
	maxName string
}

// Summary writes a compact per-category rollup of the span stream:
// span count, total/mean/max virtual duration, and the name of the
// longest span. Deterministic for a deterministic span stream (ties on
// max keep the first span in merge order).
func Summary(w io.Writer, spans []Span) {
	cats := make(map[string]*catStat)
	for _, s := range spans {
		c := cats[s.Cat]
		if c == nil {
			c = &catStat{}
			cats[s.Cat] = c
		}
		c.n++
		c.total += s.Dur
		if s.Dur > c.max {
			c.max = s.Dur
			c.maxName = s.Name
		}
	}
	names := make([]string, 0, len(cats))
	for k := range cats {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "trace: %d spans, %d categories\n", len(spans), len(names))
	for _, k := range names {
		c := cats[k]
		mean := c.total / time.Duration(c.n)
		fmt.Fprintf(w, "  %-8s n=%-6d total=%-12s mean=%-10s max=%-10s %s\n",
			k, c.n, c.total.Round(time.Microsecond), mean.Round(time.Microsecond),
			c.max.Round(time.Microsecond), c.maxName)
	}
}

// Summary writes the tracer's per-category rollup.
func (t *Tracer) Summary(w io.Writer) {
	Summary(w, t.Spans())
}
