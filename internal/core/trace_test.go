package core

import (
	"bytes"
	"testing"

	"repro/internal/simnet"
	"repro/internal/trace"
)

// streamTrace runs the streamed study over the fault web with tracing
// on and returns the tracer plus its Chrome export.
func streamTrace(t *testing.T, workers int, detail trace.Detail, faults float64) (*trace.Tracer, []byte, *StreamResult) {
	t.Helper()
	web, list := faultWeb(t)
	tr := trace.New(detail)
	res, err := streamStudy(t, web, list, func(cfg *StudyConfig) {
		cfg.Workers = workers
		cfg.Faults = simnet.FaultConfig{Rates: simnet.FaultRates{Timeout: faults}}
		cfg.FailureBudget = -1
	}, StreamConfig{Trace: tr})
	if err != nil {
		t.Fatalf("streaming study: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes(), res
}

// TestStreamTraceInvariantAcrossWorkers is the tracer's core contract:
// the exported Chrome JSON must be byte-identical at any worker count,
// including under injected faults (retries, aborted loads, dropped
// pages) at full phase detail.
func TestStreamTraceInvariantAcrossWorkers(t *testing.T) {
	_, serial, _ := streamTrace(t, 1, trace.DetailPhases, 0.05)
	_, parallel, _ := streamTrace(t, 8, trace.DetailPhases, 0.05)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("trace differs across worker counts (%d vs %d bytes)", len(serial), len(parallel))
	}
	if len(serial) == 0 {
		t.Fatal("empty trace")
	}
}

// TestStreamTraceStructure checks the span hierarchy: one span per
// site, browser loads parented under their site span, the deterministic
// reorder-window wait attribute, no run-level (study, shard) spans, and
// nothing on Chrome row 0.
func TestStreamTraceStructure(t *testing.T) {
	tr, _, res := streamTrace(t, 4, trace.DetailPhases, 0.05)
	spans := tr.Spans()

	byCat := map[string][]trace.Span{}
	for _, s := range spans {
		byCat[s.Cat] = append(byCat[s.Cat], s)
	}
	for _, cat := range []string{"study", "shard"} {
		if n := len(byCat[cat]); n != 0 {
			t.Errorf("%s spans = %d, want none", cat, n)
		}
	}
	if n := len(byCat["site"]); n != len(res.Outcomes) {
		t.Errorf("site spans = %d, want %d (failed sites must have spans too)", n, len(res.Outcomes))
	}
	if len(byCat["load"]) == 0 || len(byCat["fetch"]) == 0 || len(byCat["phase"]) == 0 {
		t.Fatalf("missing load/fetch/phase spans: %v", catCounts(byCat))
	}

	siteIDs := map[trace.SpanID]bool{}
	for _, s := range byCat["site"] {
		siteIDs[s.ID] = true
		found := false
		for _, a := range s.Attrs {
			if a.Key == "window.wait_us" {
				found = true
			}
		}
		if !found {
			t.Fatalf("site span %q missing window.wait_us attr: %+v", s.Name, s.Attrs)
		}
	}
	for _, s := range byCat["load"] {
		if !siteIDs[s.Parent] {
			t.Fatalf("load span %q not parented under a site span", s.Name)
		}
	}
	// Spans sit on per-site Chrome rows (site index + 1); none on row 0.
	for _, s := range spans {
		if s.TID == 0 {
			t.Errorf("span %q (%s) on tid 0", s.Name, s.Cat)
		}
	}
}

// TestStreamTraceDetailGating: sites-level tracing must not record
// load or exchange spans, and tracing off must record nothing.
func TestStreamTraceDetailGating(t *testing.T) {
	tr, _, _ := streamTrace(t, 2, trace.DetailSites, 0)
	for _, s := range tr.Spans() {
		if s.Cat == "load" || s.Cat == "fetch" || s.Cat == "phase" {
			t.Fatalf("detail=sites recorded %s span %q", s.Cat, s.Name)
		}
	}

	web, list := faultWeb(t)
	res, err := streamStudy(t, web, list, nil, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedSites() == len(res.Outcomes) {
		t.Fatal("untraced run measured nothing")
	}
}

func catCounts(byCat map[string][]trace.Span) map[string]int {
	out := make(map[string]int, len(byCat))
	for k, v := range byCat {
		out[k] = len(v)
	}
	return out
}

// warmTrace runs the warm study over the fault web with tracing on and
// returns the tracer plus its Chrome export.
func warmTrace(t *testing.T, workers int) (*trace.Tracer, []byte) {
	t.Helper()
	web, list := faultWeb(t)
	st, err := NewStudy(web, StudyConfig{
		Seed: 7, LandingFetches: 2, Workers: workers, FailureBudget: -1,
		Faults: simnet.FaultConfig{Rates: simnet.FaultRates{Timeout: 0.05}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.DetailPhases)
	if _, err := st.RunWarm(list, WarmConfig{Trace: tr}); err != nil {
		t.Fatalf("warm study: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

// TestWarmTraceInvariantAcrossWorkers extends the tracer's contract to
// the warm study: byte-identical at any worker count, every span ID
// unique even though each page loads twice (cold and warm legs), and
// every load span parented under a site span.
func TestWarmTraceInvariantAcrossWorkers(t *testing.T) {
	tr, serial := warmTrace(t, 1)
	_, parallel := warmTrace(t, 8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("warm trace differs across worker counts (%d vs %d bytes)", len(serial), len(parallel))
	}
	spans := tr.Spans()
	ids := make(map[trace.SpanID]string, len(spans))
	siteIDs := map[trace.SpanID]bool{}
	for _, s := range spans {
		if prev, dup := ids[s.ID]; dup {
			t.Fatalf("span ID %016x shared by %q and %q", uint64(s.ID), prev, s.Name)
		}
		ids[s.ID] = s.Name
		if s.Cat == "site" {
			siteIDs[s.ID] = true
		}
	}
	loads := 0
	for _, s := range spans {
		if s.Cat == "load" {
			loads++
			if !siteIDs[s.Parent] {
				t.Fatalf("load span %q not parented under a site span", s.Name)
			}
		}
	}
	if len(siteIDs) == 0 || loads == 0 {
		t.Fatalf("warm trace has %d site and %d load spans", len(siteIDs), loads)
	}
}
