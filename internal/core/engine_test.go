package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/har"
	"repro/internal/hispar"
	"repro/internal/runstats"
	"repro/internal/search"
	"repro/internal/toplist"
	"repro/internal/webgen"
)

var errSinkBoom = errors.New("sink boom")

// countingSink counts the sites it consumes and its flushes, and fails
// on the site at index failAt (-1: never).
type countingSink[R any] struct {
	failAt            int
	consumed, flushes int
}

func (s *countingSink[R]) ConsumeSite(*R, *Outcome) error {
	s.consumed++
	if s.consumed-1 == s.failAt {
		return errSinkBoom
	}
	return nil
}

func (s *countingSink[R]) Flush() error {
	s.flushes++
	return nil
}

// checkDroppedSink holds one run to the engine's sink-error rule: the
// run's error wraps the sink's, every input site has an outcome, the
// failing sink saw nothing after its failure, the healthy one saw every
// site, and both were flushed exactly once.
func checkDroppedSink[R any](t *testing.T, engine string, list *hispar.List,
	bad, good *countingSink[R], outs []Outcome, err error) {
	t.Helper()
	if !errors.Is(err, errSinkBoom) {
		t.Errorf("%s: run error %v does not wrap the sink's error", engine, err)
	}
	if len(outs) != len(list.Sets) {
		t.Fatalf("%s: %d outcomes for %d sites", engine, len(outs), len(list.Sets))
	}
	for i := range outs {
		if outs[i].Domain != list.Sets[i].Domain {
			t.Errorf("%s: outcome %d is %q, want %q", engine, i, outs[i].Domain, list.Sets[i].Domain)
		}
	}
	if bad.consumed != bad.failAt+1 {
		t.Errorf("%s: failing sink consumed %d sites, want %d (none after its failure)",
			engine, bad.consumed, bad.failAt+1)
	}
	if good.consumed != len(list.Sets) {
		t.Errorf("%s: healthy sink consumed %d of %d sites", engine, good.consumed, len(list.Sets))
	}
	if bad.flushes != 1 || good.flushes != 1 {
		t.Errorf("%s: flushes %d (failing) and %d (healthy), want 1 each", engine, bad.flushes, good.flushes)
	}
}

// csvSinkTo returns a CSV sink writing into buf.
func csvSinkTo(t *testing.T, buf *bytes.Buffer) SiteSink {
	t.Helper()
	sink, err := NewCSVSink(buf)
	if err != nil {
		t.Fatal(err)
	}
	return sink
}

// TestFailingSinkIsDropped pins the sink-error rule for both engines: a
// sink that fails on site k is dropped, every other sink keeps
// receiving sites — a CSV sink writes the same bytes as in a run
// without the failing sink — and all sink errors are joined into the
// run's error.
func TestFailingSinkIsDropped(t *testing.T) {
	web, list := faultWeb(t)
	const k = 3

	var csv, cleanCSV bytes.Buffer
	bad, good := &countingSink[SiteResult]{failAt: k}, &countingSink[SiteResult]{failAt: -1}
	sres, err := streamStudy(t, web, list, nil, StreamConfig{Sinks: []SiteSink{bad, good, csvSinkTo(t, &csv)}})
	checkDroppedSink(t, "RunStream", list, bad, good, sres.Outcomes, err)
	if _, err := streamStudy(t, web, list, nil, StreamConfig{Sinks: []SiteSink{csvSinkTo(t, &cleanCSV)}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv.Bytes(), cleanCSV.Bytes()) {
		t.Error("RunStream: a failing sink changed another sink's CSV")
	}

	st, err := NewStudy(web, StudyConfig{Seed: 7, LandingFetches: 2})
	if err != nil {
		t.Fatal(err)
	}
	wbad, wgood := &countingSink[WarmSiteResult]{failAt: k}, &countingSink[WarmSiteResult]{failAt: -1}
	wres, err := st.RunWarmStream(list, WarmConfig{Sinks: []Sink[WarmSiteResult]{wbad, wgood}})
	checkDroppedSink(t, "RunWarmStream", list, wbad, wgood, wres.Outcomes, err)
}

// studyAllocBudget bounds the bytes a cold study allocates per measured
// page in TestStudyAllocBudget: 1.5× the 27 KB per page measured when
// each worker's page builder, browser storage and CDN network were
// first reused across sites (88 KB before).
const studyAllocBudget = 3 * (27 << 10) / 2

// warmStudyAllocBudget bounds the bytes a warm study allocates per
// measured cold/warm pair in TestWarmStudyAllocBudget: 1.5× the 27 KB
// per pair measured when each worker first kept one browser cache and
// one measurer for all its pairs (70 KB before).
const warmStudyAllocBudget = 3 * (27 << 10) / 2

// studyObjectBudget and warmStudyObjectBudget bound the heap objects a
// cold study allocates per page and a warm study per pair: about 10%
// over the 34.2 measured when measurements first kept their content mix
// inline and shared interned third-party names (40.8 before), and over
// the 45.0 measured when warm legs first left their per-page lists nil
// (52.0 before).
const studyObjectBudget, warmStudyObjectBudget = 38, 50

// warmRetainedBudget bounds the live heap a kept warm study result holds
// per cold/warm pair in TestWarmResultRetainedBudget: about 10% over the
// 610–720 bytes measured when warm legs first left their per-page lists
// nil (2,780–2,890 before).
const warmRetainedBudget = 780

// allocStudy returns a small study's web, list and a one-worker study
// over them, for the allocation budgets.
func allocStudy(t *testing.T) (*Study, *hispar.List) {
	t.Helper()
	u := toplist.NewUniverse(toplist.Config{Seed: 7, Size: 500})
	entries := u.Top(30)
	seeds := make([]webgen.SiteSeed, len(entries))
	for i, e := range entries {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	web := webgen.Generate(webgen.Config{Seed: 7, Sites: seeds})
	list, _, err := hispar.Build(search.New(web, search.Config{EnglishOnly: true}), entries,
		hispar.BuildConfig{Sites: 20, URLsPerSite: 20, MinResults: 5})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStudy(web, StudyConfig{Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return st, list
}

// allocPerPage runs run and returns the bytes and the heap objects it
// allocated per measured page, failing unless it measured every page of
// list.
func allocPerPage(t *testing.T, list *hispar.List, run func() (runstats.Snapshot, error)) (uint64, float64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap, err := run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	pages := snap.Counters["pages.measured"]
	if pages != int64(list.Pages()) {
		t.Fatalf("measured %d pages, want %d", pages, list.Pages())
	}
	perPage := (after.TotalAlloc - before.TotalAlloc) / uint64(pages)
	objects := float64(after.Mallocs-before.Mallocs) / float64(pages)
	t.Logf("%d pages, %.1f KB and %.1f objects allocated per page", pages, float64(perPage)/1024, objects)
	return perPage, objects
}

// TestStudyAllocBudget holds a small cold study's heap allocation per
// measured page under studyAllocBudget, so a change that brings back
// per-page garbage fails here and not only in the benchmark gate.
func TestStudyAllocBudget(t *testing.T) {
	st, list := allocStudy(t)
	perPage, objects := allocPerPage(t, list, func() (runstats.Snapshot, error) {
		res, err := st.RunStream(list, StreamConfig{})
		return res.Stats, err
	})
	if perPage > studyAllocBudget {
		t.Errorf("a cold study allocates %d bytes per page, over the budget of %d", perPage, studyAllocBudget)
	}
	if objects > studyObjectBudget {
		t.Errorf("a cold study allocates %.1f objects per page, over the budget of %d", objects, studyObjectBudget)
	}
}

// TestWarmStudyAllocBudget is TestStudyAllocBudget for the warm study:
// each page is a cold/warm pair, loaded through the worker's reset
// cache and measured through its measurer.
func TestWarmStudyAllocBudget(t *testing.T) {
	st, list := allocStudy(t)
	perPage, objects := allocPerPage(t, list, func() (runstats.Snapshot, error) {
		res, err := st.RunWarmStream(list, WarmConfig{})
		return res.Stats, err
	})
	if perPage > warmStudyAllocBudget {
		t.Errorf("a warm study allocates %d bytes per pair, over the budget of %d", perPage, warmStudyAllocBudget)
	}
	if objects > warmStudyObjectBudget {
		t.Errorf("a warm study allocates %.1f objects per pair, over the budget of %d", objects, warmStudyObjectBudget)
	}
}

// TestWarmResultRetainedBudget holds the live heap a kept warm study
// result holds per cold/warm pair under warmRetainedBudget: the size of
// one kept measurement multiplies across every pair of a study, and
// across every study a seed sweep keeps.
func TestWarmResultRetainedBudget(t *testing.T) {
	st, list := allocStudy(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := st.RunWarm(list, WarmConfig{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	pairs := 0
	for i := range res.Sites {
		pairs += 1 + len(res.Sites[i].Internal)
	}
	if pairs != list.Pages() {
		t.Fatalf("kept %d pairs, want %d", pairs, list.Pages())
	}
	perPair := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(pairs)
	runtime.KeepAlive(res)
	t.Logf("%d pairs, %d bytes retained per pair", pairs, perPair)
	if perPair > warmRetainedBudget {
		t.Errorf("a kept warm study retains %d bytes per pair, over the budget of %d", perPair, warmRetainedBudget)
	}
}

var errHookBoom = errors.New("hook boom")

// TestLogHook pins the log hook's contract on both engines: it sees
// exactly the measured logs (one per cold page, the landing page's
// fetch 0 among them; both legs of every warm pair, cold first) and
// changes no sink byte, and its first error reaches the run's error
// even under an unlimited failure budget, after which it is not called
// again.
func TestLogHook(t *testing.T) {
	web, list := faultWeb(t)
	var mu sync.Mutex
	got := make(map[string]int)
	count := func(log *har.Log, warm bool) error {
		mu.Lock()
		defer mu.Unlock()
		got[fmt.Sprintf("%s %v", log.Page.URL, warm)]++
		return nil
	}

	var withHook, without bytes.Buffer
	if _, err := streamStudy(t, web, list, nil, StreamConfig{Sinks: []SiteSink{csvSinkTo(t, &withHook)}, Logs: count}); err != nil {
		t.Fatal(err)
	}
	if _, err := streamStudy(t, web, list, nil, StreamConfig{Sinks: []SiteSink{csvSinkTo(t, &without)}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(withHook.Bytes(), without.Bytes()) {
		t.Error("RunStream: a log hook changed the CSV")
	}
	st, err := NewStudy(web, StudyConfig{Seed: 7, LandingFetches: 2})
	if err != nil {
		t.Fatal(err)
	}
	wres, err := st.RunWarm(list, WarmConfig{Logs: count})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int)
	for _, set := range list.Sets {
		for _, u := range append([]string{set.Landing}, set.Internal...) {
			want[u+" false"]++ // the cold study's log
		}
	}
	for _, s := range wres.Sites {
		for _, p := range append([]PagePair{s.Landing}, s.Internal...) {
			want[p.Cold.URL+" false"]++
			want[p.Cold.URL+" true"]++
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hook saw %d distinct logs, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}

	for _, warm := range []bool{false, true} {
		calls := 0
		failing := func(*har.Log, bool) error {
			calls++
			if calls == 3 {
				return errHookBoom
			}
			return nil
		}
		one := func(c *StudyConfig) { c.Workers, c.FailureBudget = 1, -1 }
		var outs []Outcome
		if warm {
			st, err := NewStudy(web, StudyConfig{Seed: 7, Workers: 1, FailureBudget: -1})
			if err != nil {
				t.Fatal(err)
			}
			res, rerr := st.RunWarmStream(list, WarmConfig{Logs: failing})
			outs, err = res.Outcomes, rerr
		} else {
			res, rerr := streamStudy(t, web, list, one, StreamConfig{Logs: failing})
			outs, err = res.Outcomes, rerr
		}
		if !errors.Is(err, errHookBoom) {
			t.Errorf("warm=%v: run error %v does not wrap the hook's error", warm, err)
		}
		if calls != 3 {
			t.Errorf("warm=%v: hook called %d times, want 3 (none after its failure)", warm, calls)
		}
		if n := failedSites(outs); n != 0 {
			t.Errorf("warm=%v: a hook error failed %d sites", warm, n)
		}
	}
}
