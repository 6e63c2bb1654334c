package experiments

import (
	"bytes"
	"testing"

	"repro/internal/trace"
)

// TestStreamStudyRecordsTrace: experiments that read the cold H1K study
// share one traced streaming run — the papereval -trace path. Running
// fig2a and then fig8a on one traced context must record exactly one
// site span per list site (a second run would double them) and load
// spans, export valid non-empty Chrome JSON, and a repeated Study call
// must return the cached result without recording anything.
func TestStreamStudyRecordsTrace(t *testing.T) {
	tr := trace.New(trace.DetailLoads)
	ctx := NewContext(Config{Seed: 11, Sites: 40, PerSite: 8, LandingFetches: 2, Trace: tr})
	for _, id := range []string{"fig2a", "fig8a"} {
		exp, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		if _, err := exp.Run(ctx); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	list, err := ctx.List()
	if err != nil {
		t.Fatal(err)
	}
	byCat := map[string]int{}
	for _, s := range tr.Spans() {
		byCat[s.Cat]++
	}
	if byCat["site"] != len(list.Sets) || byCat["load"] == 0 {
		t.Fatalf("span counts off (list sites=%d): %v", len(list.Sets), byCat)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty trace export")
	}

	n := tr.Len()
	a, err := ctx.Study()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.Study()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Study re-ran instead of returning the cached result")
	}
	if tr.Len() != n {
		t.Fatalf("cached Study re-recorded spans: %d -> %d", n, tr.Len())
	}
	if got := a.Stats.Counters["sites.total"]; got != int64(len(list.Sets)) {
		t.Errorf("sites.total %d, want %d: one study over the list", got, len(list.Sets))
	}
}
