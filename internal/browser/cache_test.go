package browser

import (
	"bytes"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/detrand"
	"repro/internal/har"
	"repro/internal/httpsem"
	"repro/internal/simnet"
	"repro/internal/webgen"
)

// TestWarmLoadServesFromCache primes a cache with a cold load, revisits
// shortly after, and checks the warm load mixes memory hits (fresh
// copies, no network) with 304 revalidations (stale copies, header-only
// transfer) while never refetching a cached body in full.
func TestWarmLoadServesFromCache(t *testing.T) {
	b, web := testBrowser(t, 2.2)
	m := web.Sites[0].Landing().Build()
	cache := NewCache()
	b.SetCache(cache)
	defer b.SetCache(nil)

	cold, err := b.LoadRevisit(m, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() == 0 {
		t.Fatal("cold load stored nothing; generator should emit cacheable objects")
	}
	for _, e := range cold.Entries {
		if e.FromCache != "" || e.Revalidated {
			t.Fatal("cold load must not be served from an empty cache")
		}
	}

	warm, err := b.LoadRevisit(m, 0, 0, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Entries) != len(m.Objects) {
		t.Fatalf("warm entries = %d, want %d", len(warm.Entries), len(m.Objects))
	}
	hits, revals := 0, 0
	for i, e := range warm.Entries {
		switch {
		case e.FromCache != "":
			hits++
			if e.FromCache != "memory" {
				t.Errorf("entry %d FromCache = %q", i, e.FromCache)
			}
			if e.Timings.DNS >= 0 || e.Timings.Connect >= 0 {
				t.Errorf("entry %d cache hit paid for network setup: %+v", i, e.Timings)
			}
			if e.Transferred() != 0 {
				t.Errorf("entry %d cache hit transferred %d bytes", i, e.Transferred())
			}
		case e.Revalidated:
			revals++
			if e.Response.Status != 200 {
				t.Errorf("entry %d revalidated status = %d", i, e.Response.Status)
			}
			if e.Response.TransferSize != revalHeaderBytes {
				t.Errorf("entry %d 304 transfer = %d, want %d", i, e.Response.TransferSize, revalHeaderBytes)
			}
			cond := e.Request.HeaderValue("If-None-Match") != "" ||
				e.Request.HeaderValue("If-Modified-Since") != ""
			if !cond {
				t.Errorf("entry %d revalidated without a conditional header", i)
			}
		}
		if e.Response.BodySize != m.Objects[i].Size {
			t.Errorf("entry %d body = %d, want %d (warm loads must replay full bodies)",
				i, e.Response.BodySize, m.Objects[i].Size)
		}
	}
	if hits == 0 {
		t.Error("no fresh cache hits on a 30m revisit")
	}
	if revals == 0 {
		t.Error("no revalidations on a 30m revisit")
	}
	if hits != cache.Hits() || revals != cache.Revalidations() {
		t.Errorf("log says %d hits / %d revals, cache counted %d / %d",
			hits, revals, cache.Hits(), cache.Revalidations())
	}
	if warm.TransferBytes() >= cold.TransferBytes() {
		t.Errorf("warm transfer %d not below cold %d", warm.TransferBytes(), cold.TransferBytes())
	}
	if warm.NetworkRequests() >= cold.NetworkRequests() {
		t.Errorf("warm requests %d not below cold %d", warm.NetworkRequests(), cold.NetworkRequests())
	}
	if warm.Page.Timings.OnLoad >= cold.Page.Timings.OnLoad {
		t.Errorf("warm onLoad %v not below cold %v", warm.Page.Timings.OnLoad, cold.Page.Timings.OnLoad)
	}
}

// TestColdLoadUnchangedByIdleCache checks that merely installing a cache
// does not perturb a cold load's timings: stores happen after the
// response is recorded and draw no RNG.
func TestColdLoadUnchangedByIdleCache(t *testing.T) {
	b1, web := testBrowser(t, 2.2)
	b2, _ := testBrowser(t, 2.2)
	m := web.Sites[1].Landing().Build()
	l1, err := b1.LoadRevisit(m, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b2.SetCache(NewCache())
	l2, err := b2.LoadRevisit(m, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Page.Timings != l2.Page.Timings {
		t.Fatalf("page timings diverged: %+v vs %+v", l1.Page.Timings, l2.Page.Timings)
	}
	for i := range l1.Entries {
		if l1.Entries[i].Timings != l2.Entries[i].Timings {
			t.Fatalf("entry %d timings diverged", i)
		}
	}
}

// TestFaultedRevalidationDoesNotPoisonCache kills every revalidation
// exchange with injected truncation and checks the cache keeps its
// stale entries intact: a later clean revisit revalidates them
// successfully instead of refetching.
func TestFaultedRevalidationDoesNotPoisonCache(t *testing.T) {
	clean, web := testBrowser(t, 2.2)
	m := web.Sites[0].Landing().Build()
	cache := NewCache()
	clean.SetCache(cache)
	if _, err := clean.LoadRevisit(m, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	stored := cache.Len()
	if stored == 0 {
		t.Fatal("cold load stored nothing")
	}

	// Truncate every transfer on non-root origins: the root document
	// (non-cacheable, same origin) still loads, so the page completes,
	// but every attempted revalidation dies mid-exchange.
	perOrigin := make(map[string]simnet.FaultRates)
	rootOrigin := m.Objects[0].Scheme + "://" + m.Objects[0].Host
	for _, o := range m.Objects {
		if org := o.Scheme + "://" + o.Host; org != rootOrigin {
			perOrigin[org] = simnet.FaultRates{Truncate: 1}
		}
	}
	faulty := faultyBrowser(t, web, simnet.FaultConfig{PerOrigin: perOrigin}, 0)
	faulty.SetCache(cache)
	// Revisit far past every max-age so all cached copies are stale.
	log, err := faulty.LoadRevisit(m, 0, 0, 366*24*time.Hour)
	if err != nil {
		t.Fatalf("sub-resource revalidation faults must not fail the load: %v", err)
	}
	aborted := 0
	for _, e := range log.Entries {
		if e.Failed() {
			aborted++
			if e.Revalidated || e.FromCache != "" {
				t.Errorf("aborted entry %s marked as cache-served", e.Request.URL)
			}
		}
	}
	if aborted == 0 {
		t.Fatal("expected aborted revalidations under Truncate=1")
	}
	if cache.Len() != stored {
		t.Errorf("cache size changed %d -> %d across a faulted revisit", stored, cache.Len())
	}
	if cache.Revalidations() != 0 {
		t.Errorf("failed exchanges counted as revalidations: %d", cache.Revalidations())
	}

	// The same cache must now serve a clean browser's revisit: stale
	// entries survived and revalidate normally.
	clean2, _ := testBrowser(t, 2.2)
	clean2.SetCache(cache)
	warm, err := clean2.LoadRevisit(m, 0, 0, 366*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	revals := 0
	for _, e := range warm.Entries {
		if e.Revalidated {
			revals++
		}
	}
	if revals == 0 {
		t.Fatal("stale entries did not revalidate after the faulted attempt")
	}
}

// TestStoreFreshnessMatchesHeaderValue holds the cache's one-pass header
// read to the nine HeaderValue lookups it replaces: over random
// responses with duplicate, case-varied and malformed headers, store
// keeps a response exactly when the policy over the HeaderValue-built
// freshness does, and the kept Freshness is equal.
func TestStoreFreshnessMatchesHeaderValue(t *testing.T) {
	at := time.Date(2020, 3, 12, 9, 0, 0, 0, time.UTC)
	values := map[string][]string{
		"Cache-Control": {"", "public, max-age=3600", "no-store", "no-cache", "private, max-age=0", "max-age=60, immutable"},
		"Pragma":        {"", "no-cache"},
		"Expires":       {"", "0", httpsem.FormatDate(at.Add(time.Hour)), httpsem.FormatDate(at.Add(-time.Hour))},
		"Date":          {"", httpsem.FormatDate(at), "Thu, 12 Mar 2020 09:00:00 PST", "garbage"},
		"Age":           {"", "0", "120", " 30 ", "x"},
		"ETag":          {"", `"0a1b2c3d-1f4"`},
		"Last-Modified": {"", httpsem.FormatDate(at.Add(-48 * time.Hour)), httpsem.FormatDate(at.Add(time.Hour))},
		"Content-Type":  {"text/css"},
		"Server":        {"nginx"},
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	rng := detrand.New(5)
	stored := 0
	for iter := 0; iter < 3000; iter++ {
		resp := har.Response{Status: []int{200, 200, 200, 204, 301}[rng.Intn(5)]}
		for n := rng.Intn(12); n > 0; n-- {
			name := names[rng.Intn(len(names))]
			vs := values[name]
			if rng.Intn(3) == 0 {
				name = strings.ToLower(name)
			}
			resp.Headers = append(resp.Headers, har.Header{Name: name, Value: vs[rng.Intn(len(vs))]})
		}
		method := []string{"GET", "get", "POST"}[rng.Intn(3)]
		want := httpsem.ComputeFreshness(httpsem.Response{
			Method:       method,
			Status:       resp.Status,
			CacheControl: resp.HeaderValue("Cache-Control"),
			Pragma:       resp.HeaderValue("Pragma"),
			Expires:      resp.HeaderValue("Expires"),
			Date:         resp.HeaderValue("Date"),
			Age:          resp.HeaderValue("Age"),
			ETag:         resp.HeaderValue("ETag"),
			LastModified: resp.HeaderValue("Last-Modified"),
		})
		keep := resp.Status == 200 && want.Storable &&
			!(want.AlwaysRevalidate && !want.HasValidator()) &&
			!(want.Lifetime <= want.InitialAge && !want.HasValidator())
		c := NewCache()
		url := "https://a.example/" + strconv.Itoa(iter)
		c.store(url, method, &resp, at)
		e := c.entries[url]
		if (e != nil) != keep {
			t.Fatalf("headers %+v: stored = %v, want %v", resp.Headers, e != nil, keep)
		}
		if e == nil {
			continue
		}
		stored++
		if e.fresh != want {
			t.Fatalf("headers %+v: stored freshness %+v, HeaderValue freshness %+v", resp.Headers, e.fresh, want)
		}
	}
	if stored < 300 {
		t.Fatalf("only %d of 3000 random responses were stored", stored)
	}
}

// TestCacheResetMatchesNew drives two identical browsers through the
// same cold/warm pairs, clean and faulted: one keeps a single cache and
// resets it before each pair, the other installs a NewCache per pair.
// Every log must marshal to the same bytes on both, and the two caches
// must count the same. A reset after more responses than the cache
// keeps storage for must leave zeroed storage within the bounds.
func TestCacheResetMatchesNew(t *testing.T) {
	_, web := testBrowser(t, 2.2)
	models := releaseModels(web)
	models = append(models, models...)
	faults := simnet.FaultConfig{Rates: simnet.FaultRates{Timeout: 0.01, Truncate: 0.01, Loss: 0.1}}
	for _, tc := range []struct {
		name string
		make func() *Browser
	}{
		{"clean", func() *Browser { b, _ := testBrowser(t, 2.2); return b }},
		{"faulted", func() *Browser { return faultyBrowser(t, web, faults, 0.02) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reset, fresh := tc.make(), tc.make()
			cache := NewCache()
			pairs, hits := 0, 0
			pair := func(i int, m *webgen.PageModel) {
				cache.Reset()
				reset.SetCache(cache)
				fc := NewCache()
				fresh.SetCache(fc)
				var logs []*har.Log
				for _, revisit := range []time.Duration{0, 30 * time.Minute} {
					lr, errR := reset.LoadRevisit(m, i, 0, revisit)
					lf, errF := fresh.LoadRevisit(m, i, 0, revisit)
					if (errR == nil) != (errF == nil) || (errR != nil && errR.Error() != errF.Error()) {
						t.Fatalf("%s revisit %v: errors differ: %v vs %v", m.URL, revisit, errR, errF)
					}
					if !bytes.Equal(harBytes(t, lr), harBytes(t, lf)) {
						t.Fatalf("%s revisit %v: log through a reset cache differs from one through NewCache", m.URL, revisit)
					}
					logs = append(logs, lr)
				}
				if cache.Len() != fc.Len() || cache.Hits() != fc.Hits() || cache.Revalidations() != fc.Revalidations() {
					t.Fatalf("%s: reset cache holds %d, %d hits, %d revalidations; new cache %d, %d, %d", m.URL,
						cache.Len(), cache.Hits(), cache.Revalidations(), fc.Len(), fc.Hits(), fc.Revalidations())
				}
				pairs++
				hits += cache.Hits()
				for _, l := range logs {
					reset.Release(l)
				}
			}
			for i, m := range models {
				pair(i, m)
			}

			// Overflow both bounds, then check Reset's storage.
			at := time.Date(2020, 3, 12, 9, 0, 0, 0, time.UTC)
			cache.Reset()
			for k := 0; k < maxKeptChunks*entryChunk+1; k++ {
				cache.store("https://a.example/"+strconv.Itoa(k), "GET", &har.Response{Status: 200, Headers: []har.Header{
					{Name: "Cache-Control", Value: "max-age=60"}, {Name: "ETag", Value: `"e"`},
					{Name: "Date", Value: httpsem.FormatDate(at)}, {Name: "Server", Value: "s"},
					{Name: "Content-Type", Value: "text/css"}, {Name: "Via", Value: "1.1 v"},
					{Name: "X-Cache", Value: "HIT"}, {Name: "Age", Value: "1"},
				}}, at)
			}
			if cache.Len() != maxKeptChunks*entryChunk+1 || cap(cache.hdrs) <= maxKeptHeaders {
				t.Fatalf("overflow stored %d responses in %d header slots; want %d in more than %d",
					cache.Len(), cap(cache.hdrs), maxKeptChunks*entryChunk+1, maxKeptHeaders)
			}
			cache.Reset()
			if cache.Len() != 0 || cache.Hits() != 0 || cache.Revalidations() != 0 || cache.used != 0 {
				t.Fatalf("Reset left %d entries, %d hits, %d revalidations, %d used slots", cache.Len(), cache.Hits(), cache.Revalidations(), cache.used)
			}
			if len(cache.chunks) > maxKeptChunks || cap(cache.hdrs) > maxKeptHeaders {
				t.Fatalf("Reset kept %d chunks and %d header slots, bounds %d and %d", len(cache.chunks), cap(cache.hdrs), maxKeptChunks, maxKeptHeaders)
			}
			for k, ch := range cache.chunks {
				if !reflect.ValueOf(*ch).IsZero() {
					t.Fatalf("chunk %d not zeroed by Reset", k)
				}
			}
			for k, h := range cache.hdrs[:cap(cache.hdrs)] {
				if h != (har.Header{}) {
					t.Fatalf("header slot %d not zeroed by Reset: %+v", k, h)
				}
			}
			for i, m := range models[:3] {
				pair(i, m)
			}
			if hits == 0 {
				t.Fatalf("%d pairs without a cache hit", pairs)
			}
		})
	}
}
