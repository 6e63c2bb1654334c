package browser

import (
	"bytes"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/dnssim"
	"repro/internal/har"
	"repro/internal/httpsem"
	"repro/internal/simnet"
	"repro/internal/webgen"
)

// harBytes marshals a log the way webmeasure -har writes it.
func harBytes(t *testing.T, log *har.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := log.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// releaseModels returns landing and internal pages of several sites, in
// an order that makes the page size both shrink and grow between loads.
func releaseModels(web *webgen.Web) []*webgen.PageModel {
	var ms []*webgen.PageModel
	for _, s := range web.Sites[:5] {
		ms = append(ms, s.Landing().Build(), s.PageAt(1).Build(), s.PageAt(2).Build())
	}
	return ms
}

// TestReleasedLoadMatchesFreshLoad drives two identical browsers through
// the same loads; one releases every log once marshalled, the other
// keeps them all. Every log must marshal to the same bytes on both, for
// cold loads, faulted loads (retries, aborted entries, compacted logs)
// and cold/warm pairs against a cache.
func TestReleasedLoadMatchesFreshLoad(t *testing.T) {
	_, web := testBrowser(t, 2.2)
	models := releaseModels(web)
	faults := simnet.FaultConfig{Rates: simnet.FaultRates{Timeout: 0.01, Truncate: 0.01, Loss: 0.1}}
	cases := []struct {
		name string
		make func() *Browser
		warm bool
	}{
		{"cold", func() *Browser { b, _ := testBrowser(t, 2.2); return b }, false},
		{"faulted", func() *Browser { return faultyBrowser(t, web, faults, 0.02) }, false},
		{"warm", func() *Browser { b, _ := testBrowser(t, 2.2); return b }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rel, kept := tc.make(), tc.make()
			reused, failed := 0, 0
			var prev *har.Entry
			load := func(m *webgen.PageModel, fetchID, attempt int, revisit time.Duration) *har.Log {
				lr, errR := rel.LoadRevisit(m, fetchID, attempt, revisit)
				lk, errK := kept.LoadRevisit(m, fetchID, attempt, revisit)
				if (errR == nil) != (errK == nil) || (errR != nil && errR.Error() != errK.Error()) {
					t.Fatalf("%s fetch %d: errors differ: %v vs %v", m.URL, fetchID, errR, errK)
				}
				if errR != nil {
					failed++
				}
				if !bytes.Equal(harBytes(t, lr), harBytes(t, lk)) {
					t.Fatalf("%s fetch %d attempt %d: released-storage log differs from fresh one", m.URL, fetchID, attempt)
				}
				if len(lr.Entries) > 0 && &lr.Entries[0] == prev {
					reused++
				}
				return lr
			}
			for i, m := range models {
				if !tc.warm {
					for f := 0; f < 3; f++ {
						for attempt := 0; attempt < 2; attempt++ {
							lr := load(m, f, attempt, 0)
							prev = &lr.Entries[0]
							rel.Release(lr)
						}
					}
					continue
				}
				rel.SetCache(NewCache())
				kept.SetCache(NewCache())
				cold := load(m, i, 0, 0)
				warm := load(m, i, 0, 30*time.Minute)
				prev = &warm.Entries[0]
				rel.Release(cold)
				rel.Release(warm)
			}
			if reused == 0 {
				t.Fatal("no load reused a released log's entries")
			}
			if tc.name == "faulted" && failed == 0 {
				t.Fatal("faults too rare: no load failed")
			}
		})
	}
}

// TestUnreleasedLogSurvivesLaterLoads holds a log built on recycled
// storage, never releases it, and checks it is byte-for-byte unchanged
// after three more loads of the same page that do release theirs.
func TestUnreleasedLogSurvivesLaterLoads(t *testing.T) {
	b, web := testBrowser(t, 2.2)
	m := web.Sites[0].Landing().Build()
	first, err := b.LoadRevisit(m, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.Release(first)
	held, err := b.LoadRevisit(m, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := b.scratch.lent[len(b.scratch.lent)-1]; st.log != held || st.slab == nil {
		t.Fatal("the held log should be built on a recycled header slab")
	}
	want := harBytes(t, held)
	for f := 2; f < 5; f++ {
		log, err := b.LoadRevisit(m, f, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		b.Release(log)
		if !bytes.Equal(harBytes(t, held), want) {
			t.Fatalf("unreleased log changed after load %d", f)
		}
	}

	// The log is the caller's: appending to one entry's headers must
	// not spill into the next entry's part of the slab.
	for i := 0; i+1 < len(held.Entries); i++ {
		next := append([]har.Header(nil), held.Entries[i+1].Response.Headers...)
		e := &held.Entries[i].Response
		e.Headers = append(e.Headers, make([]har.Header, maxRespHeaders)...)
		if !reflect.DeepEqual(held.Entries[i+1].Response.Headers, next) {
			t.Fatalf("appending to entry %d's headers overwrote entry %d's", i, i+1)
		}
	}
}

// TestDateHeaderMarksResponseStart holds the memoized Date header to
// the instant the response started: every network response's Date is
// the formatted time its wait phase ended, StartedAt + Time − Receive.
func TestDateHeaderMarksResponseStart(t *testing.T) {
	b, web := testBrowser(t, 2.2)
	checked := 0
	for _, s := range web.Sites[:4] {
		m := s.Landing().Build()
		log, err := b.LoadRevisit(m, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range log.Entries {
			at := e.StartedAt.Add(e.Time - e.Timings.Receive)
			if got, want := e.Response.HeaderValue("Date"), httpsem.FormatDate(at); got != want {
				t.Fatalf("%s: Date %q, want %q", e.Request.URL, got, want)
			}
			checked++
		}
		b.Release(log)
	}
	if checked == 0 {
		t.Fatal("no entries checked")
	}
}

// TestReleaseNoOps checks that releasing nil, a foreign log, a log
// already released or one returned more than maxLent loads ago neither
// frees storage nor disturbs the log.
func TestReleaseNoOps(t *testing.T) {
	b, web := testBrowser(t, 2.2)
	other, _ := testBrowser(t, 2.2)
	m := web.Sites[1].Landing().Build()
	load := func(br *Browser, f int) *har.Log {
		t.Helper()
		log, err := br.LoadRevisit(m, f, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return log
	}
	freed := func() int { return len(b.scratch.free) }

	b.Release(nil)
	b.Release(&har.Log{})
	foreign := load(other, 0)
	b.Release(foreign)
	if freed() != 0 || foreign.Entries == nil {
		t.Fatal("releasing nil or a foreign log freed storage")
	}
	other.Release(foreign)
	if len(other.scratch.free) != 1 {
		t.Fatal("the owning browser could not release its log")
	}

	// Stale: three loads outstanding, the oldest no longer recognised.
	a, c, d := load(b, 0), load(b, 1), load(b, 2)
	wantA := harBytes(t, a)
	b.Release(a)
	if freed() != 0 || !bytes.Equal(harBytes(t, a), wantA) {
		t.Fatal("releasing a stale log freed or changed it")
	}
	b.Release(c)
	b.Release(c)
	if freed() != 1 {
		t.Fatalf("double release left %d stores free, want 1", freed())
	}
	b.Release(d)
	if freed() != 2 {
		t.Fatalf("%d stores free, want 2", freed())
	}

	// Each freed store serves one later load: two held loads never
	// share an entry array.
	e, f := load(b, 3), load(b, 4)
	if &e.Entries[0] == &f.Entries[0] {
		t.Fatal("two live logs share one entry array")
	}
	if !bytes.Equal(harBytes(t, a), wantA) {
		t.Fatal("stale log changed by later loads")
	}
}

// TestWarmLoadAfterReleaseUsesCacheHeaders runs warm revisits on
// recycled storage and checks every cache-served entry carries the
// cache's own header slice, and that the cache's headers are untouched
// after loads that recycle the slab around them.
func TestWarmLoadAfterReleaseUsesCacheHeaders(t *testing.T) {
	b, web := testBrowser(t, 2.2)
	m := web.Sites[0].Landing().Build()
	cache := NewCache()
	b.SetCache(cache)
	cold, err := b.LoadRevisit(m, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.Release(cold)
	stored := make(map[string][]har.Header, len(cache.entries))
	for url, ent := range cache.entries {
		stored[url] = append([]har.Header(nil), ent.headers...)
	}

	hits, revals := 0, 0
	for k := 1; k <= 3; k++ {
		warm, err := b.LoadRevisit(m, 0, 0, time.Duration(k)*30*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		for i := range warm.Entries {
			e := &warm.Entries[i]
			if e.FromCache == "" && !e.Revalidated {
				continue
			}
			if e.FromCache != "" {
				hits++
			} else {
				revals++
			}
			ent := cache.entries[e.Request.URL]
			if len(e.Response.Headers) == 0 || &e.Response.Headers[0] != &ent.headers[0] {
				t.Fatalf("entry %s does not serve the cache's own headers", e.Request.URL)
			}
		}
		b.Release(warm)
	}
	if hits == 0 || revals == 0 {
		t.Fatalf("want both cache hits and revalidations, got %d and %d", hits, revals)
	}
	for url, ent := range cache.entries {
		if !reflect.DeepEqual(ent.headers, stored[url]) {
			t.Fatalf("cached headers of %s changed", url)
		}
	}
}

// TestReleasedReloadAllocations guards the point of Release and of a
// reset CDN network: a reload of the same page on released storage
// allocates a handful of objects, not a few per entry.
func TestReleasedReloadAllocations(t *testing.T) {
	b, web := testBrowser(t, 2.2)
	m := web.Sites[0].Landing().Build()
	f := 0
	reload := func() {
		log, err := b.LoadRevisit(m, f, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		f++
		b.Release(log)
	}
	reload()
	reload()
	allocs := testing.AllocsPerRun(20, reload)
	if allocs > 6 {
		t.Fatalf("released reload allocates %.0f objects for %d entries, want at most 6", allocs, len(m.Objects))
	}
	t.Logf("%.0f allocations for %d entries", allocs, len(m.Objects))
}

// TestResetMatchesNew loads several sites' pages on one browser, Reset
// before each site, and on a new browser per site: every log must
// marshal to the same bytes, cold and faulted. A log returned before
// Reset is no longer released, and stays intact.
func TestResetMatchesNew(t *testing.T) {
	_, web := testBrowser(t, 2.2)
	faults := simnet.FaultConfig{Rates: simnet.FaultRates{Timeout: 0.01, Truncate: 0.01, Loss: 0.1}}
	for _, net := range []simnet.Config{{}, {Faults: faults}} {
		config := func(site int) Config {
			resolver := dnssim.NewResolver(dnssim.ResolverConfig{
				Name: "isp", Seed: int64(site), WarmQueryRate: 0.8,
			}, web.Authority(), nil)
			return Config{Seed: int64(51 + site), Resolver: resolver, Net: net, CDNFactory: resetNetwork(2.2)}
		}
		reused, err := New(config(0))
		if err != nil {
			t.Fatal(err)
		}
		var held *har.Log
		var heldBytes []byte
		for i, s := range web.Sites[:6] {
			if i > 0 {
				if err := reused.Reset(config(i)); err != nil {
					t.Fatal(err)
				}
			}
			fresh, err := New(config(i))
			if err != nil {
				t.Fatal(err)
			}
			if held != nil {
				reused.Release(held)
				if held.Entries == nil || !bytes.Equal(harBytes(t, held), heldBytes) {
					t.Fatal("Release after Reset freed or changed a log of the previous site")
				}
				held = nil
			}
			for k, p := range []*webgen.Page{s.Landing(), s.PageAt(1), s.PageAt(2)} {
				m := p.Build()
				for f := 0; f < 2; f++ {
					lr, errR := reused.LoadRevisit(m, f, 0, 0)
					lf, errF := fresh.LoadRevisit(m, f, 0, 0)
					if (errR == nil) != (errF == nil) {
						t.Fatalf("site %d %s fetch %d: errors differ: %v vs %v", i, m.URL, f, errR, errF)
					}
					if !bytes.Equal(harBytes(t, lr), harBytes(t, lf)) {
						t.Fatalf("site %d %s fetch %d: reset browser's log differs from a new browser's", i, m.URL, f)
					}
					if k == 2 && f == 1 {
						held, heldBytes = lr, harBytes(t, lr)
						continue
					}
					reused.Release(lr)
				}
			}
		}
	}
	if err := (&Browser{}).Reset(Config{}); err == nil {
		t.Fatal("Reset accepted a config without a resolver")
	}
}

// TestDatesOutliveArenaChunks holds Date headers cut from the browser's
// date arena, in an unreleased log and in a cache's stored headers,
// while enough released loads follow to fill several arena chunks: no
// held date may change. The arena itself must return FormatDate's bytes,
// also for a date longer than an IMF-fixdate.
func TestDatesOutliveArenaChunks(t *testing.T) {
	var a dateArena
	base := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	var kept []string
	for i := 0; i < 3*dateChunk/29; i++ {
		kept = append(kept, a.format(base.Add(time.Duration(i)*time.Second)))
	}
	far := time.Date(12345, 6, 7, 8, 9, 10, 0, time.UTC)
	if got, want := a.format(far), httpsem.FormatDate(far); got != want {
		t.Fatalf("arena formats %v as %q, want %q", far, got, want)
	}
	for i, d := range kept {
		if want := httpsem.FormatDate(base.Add(time.Duration(i) * time.Second)); d != want {
			t.Fatalf("date %d reads %q after later dates, want %q", i, d, want)
		}
	}

	b, web := testBrowser(t, 2.2)
	m := web.Sites[0].Landing().Build()
	cache := NewCache()
	b.SetCache(cache)
	held, err := b.LoadRevisit(m, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.SetCache(nil)
	want := harBytes(t, held)
	stored := make(map[string][]har.Header, len(cache.entries))
	for url, ent := range cache.entries {
		stored[url] = append([]har.Header(nil), ent.headers...)
	}
	chunk := func() *byte { return unsafe.StringData(b.scratch.dates.sb.String()) }
	first, chunks := chunk(), 0
	for f := 1; chunks < 3; f++ {
		log, err := b.LoadRevisit(m, f, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		b.Release(log)
		if c := chunk(); c != first {
			first, chunks = c, chunks+1
		}
	}
	if !bytes.Equal(harBytes(t, held), want) {
		t.Fatal("an unreleased log changed as the date arena filled")
	}
	for url, ent := range cache.entries {
		if !reflect.DeepEqual(ent.headers, stored[url]) {
			t.Fatalf("cached headers of %s changed as the date arena filled", url)
		}
	}
}
