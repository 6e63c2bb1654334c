package browser

import (
	"testing"
	"time"

	"repro/internal/trace"
)

// loadWithTrace loads the web's first landing page with a recorder at
// the given detail installed and returns the recorded spans.
func loadWithTrace(t *testing.T, detail trace.Detail) []trace.Span {
	t.Helper()
	b, web := testBrowser(t, 2.2)
	tr := trace.New(detail)
	rec := tr.Recorder(1, 3)
	rec.SetParent(trace.SiteSpanID(3))
	rec.SetBase(time.Date(2020, 3, 12, 0, 0, 0, 0, time.UTC))
	b.SetTrace(rec)
	m := web.Sites[0].Landing().Build()
	if _, err := b.LoadRevisit(m, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	tr.Merge(rec)
	return tr.Spans()
}

func TestLoadRecordsSpans(t *testing.T) {
	spans := loadWithTrace(t, trace.DetailPhases)
	var load *trace.Span
	fetches, phases := 0, 0
	for i := range spans {
		switch spans[i].Cat {
		case "load":
			load = &spans[i]
		case "fetch", "cache", "revalidate":
			fetches++
		case "phase":
			phases++
		}
	}
	if load == nil {
		t.Fatal("no load span recorded")
	}
	if load.Parent != trace.SiteSpanID(3) {
		t.Errorf("load span parent = %x, want the site span", uint64(load.Parent))
	}
	if load.Dur <= 0 {
		t.Errorf("load span duration = %v", load.Dur)
	}
	if fetches == 0 || phases == 0 {
		t.Fatalf("fetch/phase spans missing: fetches=%d phases=%d", fetches, phases)
	}
	if phases < fetches {
		t.Errorf("expected ≥1 phase span per exchange: fetches=%d phases=%d", fetches, phases)
	}
}

// TestLoadPhaseSpansTileExchange: a fetch's phase spans must lie inside
// the exchange span and be contiguous from its start.
func TestLoadPhaseSpansTileExchange(t *testing.T) {
	spans := loadWithTrace(t, trace.DetailPhases)
	byParent := map[trace.SpanID][]trace.Span{}
	byID := map[trace.SpanID]trace.Span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Cat == "phase" {
			byParent[s.Parent] = append(byParent[s.Parent], s)
		}
	}
	checked := 0
	for parent, phases := range byParent {
		ex, ok := byID[parent]
		if !ok {
			t.Fatalf("phase spans reference unknown exchange %x", uint64(parent))
		}
		cursor := ex.Start
		var total time.Duration
		for _, p := range phases {
			if !p.Start.Equal(cursor) {
				t.Fatalf("phase %q of %q starts at %v, want %v", p.Name, ex.Name, p.Start, cursor)
			}
			cursor = cursor.Add(p.Dur)
			total += p.Dur
		}
		if total > ex.Dur {
			t.Fatalf("phases of %q total %v > exchange %v", ex.Name, total, ex.Dur)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no exchanges with phase spans")
	}
}

// TestLoadTraceDetailGating: loads-level detail records the load span
// only; no recorder records nothing and changes nothing.
func TestLoadTraceDetailGating(t *testing.T) {
	spans := loadWithTrace(t, trace.DetailLoads)
	if len(spans) != 1 || spans[0].Cat != "load" {
		t.Fatalf("detail=loads spans = %+v, want exactly one load span", spans)
	}
}

// TestLoadTraceCacheSpans: a warm revisit against a cache must mark
// served-from-cache exchanges with the cache/revalidate categories.
func TestLoadTraceCacheSpans(t *testing.T) {
	b, web := testBrowser(t, 2.2)
	b.SetCache(NewCache())
	m := web.Sites[0].Landing().Build()
	if _, err := b.LoadRevisit(m, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.DetailFetches)
	rec := tr.Recorder(1, 0)
	rec.SetBase(time.Date(2020, 3, 12, 1, 0, 0, 0, time.UTC))
	b.SetTrace(rec)
	if _, err := b.LoadRevisit(m, 0, 0, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	tr.Merge(rec)
	cached := 0
	for _, s := range tr.Spans() {
		if s.Cat == "cache" || s.Cat == "revalidate" {
			cached++
		}
	}
	if cached == 0 {
		t.Fatal("warm revisit recorded no cache/revalidate spans")
	}
}
