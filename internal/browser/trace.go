// Span emission for the load path. Spans are derived from the HAR
// entries the load already produced — before compaction, so aborted
// attempts show up too — and carry only virtual-time offsets added to
// the recorder's base (the site clock's now at attempt start). Nothing
// here reads a clock: the trace stays byte-identical at any worker
// count because its inputs are the deterministic load results.
package browser

import (
	"strconv"
	"time"

	"repro/internal/har"
	"repro/internal/trace"
)

// SetTrace installs (or, with nil, removes) the span recorder that
// subsequent loads report into. core's streaming runner installs one
// per site.
func (b *Browser) SetTrace(rec *trace.Recorder) { b.cfg.Trace = rec }

// recordTrace emits the attempt's spans: one load span, one span per
// attempted exchange (detail ≥ fetches), and HAR phase sub-spans
// (detail ≥ phases). onLoad is the page's load event for successful
// attempts and 0 for aborted ones, where the last entry end stands in.
// A warm revisit's span IDs carry the revisit offset (trace.AttemptKey),
// so they never collide with the page's cold load.
func (b *Browser) recordTrace(s *loadState, fetchID, attempt int, revisit, onLoad time.Duration, errPhase string) {
	rec := b.cfg.Trace
	if rec == nil || rec.Detail() < trace.DetailLoads {
		return
	}
	site := strconv.Itoa(rec.Site())
	f := strconv.Itoa(fetchID)
	a := strconv.Itoa(attempt)
	ak := trace.AttemptKey(attempt, revisit)
	base := rec.Base()

	dur := onLoad
	attempted := 0
	for i := range s.entries {
		if !s.attempted[i] {
			continue
		}
		attempted++
		if end := s.entries[i].StartedAt.Sub(s.navStart) + s.entries[i].Time; end > dur {
			dur = end
		}
	}
	loadID := trace.DeriveID("load", site, s.m.URL, f, ak)
	attrs := []trace.Attr{
		{Key: "url", Val: s.m.URL},
		{Key: "fetch", Val: f},
		{Key: "attempt", Val: a},
		{Key: "exchanges", Val: strconv.Itoa(attempted)},
	}
	if errPhase != "" {
		attrs = append(attrs, trace.Attr{Key: "aborted", Val: errPhase})
	} else {
		attrs = append(attrs, trace.Attr{Key: "onload_us", Val: strconv.FormatInt(onLoad.Microseconds(), 10)})
	}
	rec.Record(trace.Span{
		ID: loadID, Parent: rec.Parent(),
		Name: "load " + s.m.URL, Cat: "load",
		Start: base, Dur: dur, Attrs: attrs,
	})
	if rec.Detail() < trace.DetailFetches {
		return
	}
	for i := range s.entries {
		if !s.attempted[i] {
			continue
		}
		e := &s.entries[i]
		x := strconv.Itoa(i)
		xid := trace.DeriveID("x", site, s.m.URL, f, ak, x)
		off := e.StartedAt.Sub(s.navStart)
		rec.Record(trace.Span{
			ID: xid, Parent: loadID,
			Name: e.Request.Method + " " + e.Request.URL, Cat: exchangeCat(e),
			Start: base.Add(off), Dur: e.Time, Attrs: exchangeAttrs(e, x),
		})
		if rec.Detail() < trace.DetailPhases {
			continue
		}
		recordPhases(rec, xid, site, s.m.URL, f, ak, x, base.Add(off), e.Timings)
	}
}

// exchangeCat buckets an exchange by how it was served: pure cache hit,
// conditional revalidation, or a network fetch.
func exchangeCat(e *har.Entry) string {
	switch {
	case e.FromCache != "":
		return "cache"
	case e.Revalidated:
		return "revalidate"
	default:
		return "fetch"
	}
}

func exchangeAttrs(e *har.Entry, x string) []trace.Attr {
	attrs := []trace.Attr{
		{Key: "x", Val: x},
		{Key: "status", Val: strconv.Itoa(e.Response.Status)},
		{Key: "bytes", Val: strconv.FormatInt(e.Response.BodySize, 10)},
		{Key: "transfer", Val: strconv.FormatInt(e.Transferred(), 10)},
	}
	if e.FromCache != "" {
		attrs = append(attrs, trace.Attr{Key: "cache", Val: e.FromCache})
	}
	if e.Revalidated {
		attrs = append(attrs, trace.Attr{Key: "revalidated", Val: "true"})
	}
	if e.Aborted != "" {
		attrs = append(attrs, trace.Attr{Key: "aborted", Val: e.Aborted})
	}
	return attrs
}

// phaseOrder is the HAR phase layout of one exchange; phases that did
// not occur (NotApplicable or zero) are skipped, the rest tile the
// entry's duration in this order.
var phaseOrder = [...]string{"blocked", "dns", "connect", "ssl", "send", "wait", "receive"}

func recordPhases(rec *trace.Recorder, parent trace.SpanID, site, url, f, a, x string, start time.Time, t har.Timings) {
	durs := [...]time.Duration{t.Blocked, t.DNS, t.Connect, t.SSL, t.Send, t.Wait, t.Receive}
	cursor := start
	for i, name := range phaseOrder {
		d := durs[i]
		if d <= 0 {
			continue
		}
		rec.Record(trace.Span{
			ID:     trace.DeriveID("p", site, url, f, a, x, name),
			Parent: parent,
			Name:   name, Cat: "phase",
			Start: cursor, Dur: d,
		})
		cursor = cursor.Add(d)
	}
}
