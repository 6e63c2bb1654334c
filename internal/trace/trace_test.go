package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2020, 3, 12, 0, 0, 0, 0, time.UTC)

func sampleSpans() []Span {
	return []Span{
		{ID: SiteSpanID(1), Name: "site a.com", Cat: "site", TID: 1,
			Start: t0, Dur: 3 * time.Second,
			Attrs: []Attr{{"rank", "1"}, {"domain", "a.com"}}},
		{ID: DeriveID("load", "1", "http://a.com/", "0", "1"), Parent: SiteSpanID(1),
			Name: "load http://a.com/", Cat: "load", TID: 1,
			Start: t0.Add(time.Second), Dur: 800 * time.Millisecond,
			Attrs: []Attr{{"url", "http://a.com/\"x\"\n"}}},
	}
}

func TestDeriveIDStable(t *testing.T) {
	a := DeriveID("site", "42")
	b := DeriveID("site", "42")
	if a != b {
		t.Fatalf("DeriveID not stable: %x vs %x", a, b)
	}
	if a == DeriveID("site", "43") {
		t.Fatalf("distinct coordinates collided")
	}
	// The separator must keep ("ab","c") and ("a","bc") apart.
	if DeriveID("ab", "c") == DeriveID("a", "bc") {
		t.Fatalf("part boundaries not separated")
	}
	if SiteSpanID(7) != DeriveID("site", "7") {
		t.Fatalf("SiteSpanID disagrees with DeriveID")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	rec := tr.Recorder(1, 0)
	if rec != nil {
		t.Fatalf("nil tracer must hand out nil recorders")
	}
	rec.Record(Span{Name: "x"}) // must not panic
	rec.SetParent(1)
	rec.SetBase(t0)
	if rec.Len() != 0 || rec.Detail() != DetailSites {
		t.Fatalf("nil recorder not a no-op")
	}
	tr.Merge(rec)
	if tr.Len() != 0 {
		t.Fatalf("nil tracer Len = %d", tr.Len())
	}
	var ring *Ring[Span]
	if seq := ring.Record(Span{}); seq != 0 {
		t.Fatalf("nil ring Record = %d", seq)
	}
}

func TestRecorderStampsTID(t *testing.T) {
	tr := New(DetailPhases)
	rec := tr.Recorder(7, 3)
	rec.Record(Span{Name: "x"})
	tr.Merge(rec)
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].TID != 7 {
		t.Fatalf("want 1 span with tid 7, got %+v", spans)
	}
	if rec.Detail() != DetailPhases || rec.Site() != 3 {
		t.Fatalf("recorder did not inherit detail/site")
	}
}

// TestChromeJSONValid round-trips the export through encoding/json and
// checks the trace-event fields Perfetto requires.
func TestChromeJSONValid(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeJSON(&buf, sampleSpans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string            `json:"ph"`
			Pid  int               `json:"pid"`
			Tid  int64             `json:"tid"`
			Ts   *int64            `json:"ts"`
			Dur  *int64            `json:"dur"`
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("want 2 events, got %d", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Ph != "X" || ev.Pid != 1 || ev.Tid != 1 {
		t.Fatalf("bad event header: %+v", ev)
	}
	if ev.Ts == nil || *ev.Ts != 1_000_000 {
		t.Fatalf("ts = %v, want 1000000", ev.Ts)
	}
	if ev.Dur == nil || *ev.Dur != 800_000 {
		t.Fatalf("dur = %v, want 800000", ev.Dur)
	}
	if ev.Args["url"] != "http://a.com/\"x\"\n" {
		t.Fatalf("escaped attr did not round-trip: %q", ev.Args["url"])
	}
	if ev.Args["span_id"] == "" || ev.Args["parent_id"] == "" {
		t.Fatalf("missing span ids: %v", ev.Args)
	}
}

// TestChromeJSONDeterministic: identical span streams must export
// byte-identical documents.
func TestChromeJSONDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChromeJSON(&a, sampleSpans()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeJSON(&b, sampleSpans()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("export not deterministic")
	}
}

func TestJSONStringEscaping(t *testing.T) {
	for in, want := range map[string]string{
		"plain":       `"plain"`,
		`q"b\`:        `"q\"b\\"`,
		"n\nt\tr\r":   `"n\nt\tr\r"`,
		"\x00\x1f":    "\"\\u0000\\u001f\"",
		"unicode é ✓": "\"unicode é ✓\"",
	} {
		if got := string(appendJSONString(nil, in)); got != want {
			t.Errorf("escape(%q) = %s, want %s", in, got, want)
		}
	}
}

func TestSummary(t *testing.T) {
	tr := New(DetailFetches)
	rec := tr.Recorder(1, 0)
	for _, s := range sampleSpans() {
		rec.Record(s)
	}
	tr.Merge(rec)
	var buf bytes.Buffer
	tr.Summary(&buf)
	out := buf.String()
	if !strings.Contains(out, "2 spans, 2 categories") {
		t.Fatalf("summary header wrong:\n%s", out)
	}
	if !strings.Contains(out, "site") || !strings.Contains(out, "load http://a.com/") {
		t.Fatalf("summary missing categories or max-span name:\n%s", out)
	}
	var again bytes.Buffer
	tr.Summary(&again)
	if again.String() != out {
		t.Fatalf("summary not deterministic")
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRing[Span](3)
	for i := 0; i < 5; i++ {
		seq := r.Record(Span{Name: string(rune('a' + i))})
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d", r.Total())
	}
	got := r.Snapshot()
	if len(got) != 3 || got[0].Val.Name != "c" || got[2].Val.Name != "e" || got[0].Seq != 3 || got[2].Seq != 5 {
		t.Fatalf("snapshot = %+v", got)
	}
}

func TestParseDetail(t *testing.T) {
	for _, d := range []Detail{DetailSites, DetailLoads, DetailFetches, DetailPhases} {
		got, err := ParseDetail(d.String())
		if err != nil || got != d {
			t.Fatalf("ParseDetail(%q) = %v, %v", d.String(), got, err)
		}
	}
	if _, err := ParseDetail("bogus"); err == nil {
		t.Fatalf("ParseDetail accepted bogus")
	}
}
