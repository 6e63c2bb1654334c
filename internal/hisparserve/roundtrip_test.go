package hisparserve

// The dogfood round trip: internal/browser's RFC 7234 cache — the same
// policy engine the study uses to classify cacheability — drives a real
// HTTP client against the live control plane. The headers hisparserve
// emits must be the headers our own browser cache can consume: store on
// first fetch, serve locally while fresh, revalidate with a header-only
// 304 once stale, and account for every body byte the cache saved.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/httpsem"
)

func TestBrowserCacheRoundTrip(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.builds.Wait()
	}()

	// A fake advancing clock ages cache entries without sleeping. The
	// transport disables transparent gzip so the cache holds identity
	// representations whose validators match what it revalidates with.
	clock := time.Date(2020, 3, 12, 0, 0, 0, 0, time.UTC)
	cache := browser.NewCache()
	cc := browser.NewCachingClient(cache, &http.Transport{DisableCompression: true}, func() time.Time { return clock })
	defer cc.Close()

	url := ts.URL + "/v1/list/0?wait=1"

	// Cold fetch: full transfer, stored.
	g1, err := cc.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Status != 200 || g1.FromCache || g1.Revalidated {
		t.Fatalf("cold fetch: %+v", g1)
	}
	if g1.TransferBytes <= int64(len(g1.Body)) {
		t.Errorf("cold transfer %d bytes, want > body size %d (headers cross the wire too)", g1.TransferBytes, len(g1.Body))
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries after cold fetch, want 1", cache.Len())
	}

	// Dogfood the policy parse itself: the server's emitted headers must
	// compute to a storable response with exactly the configured
	// freshness lifetime and an entity validator.
	fr := httpsem.ComputeFreshness(httpsem.Response{
		Method:       "GET",
		Status:       g1.Status,
		CacheControl: g1.Header.Get("Cache-Control"),
		Date:         g1.Header.Get("Date"),
		ETag:         g1.Header.Get("ETag"),
		LastModified: g1.Header.Get("Last-Modified"),
	})
	if !fr.Storable || fr.Heuristic {
		t.Errorf("emitted headers not explicitly storable: %+v", fr)
	}
	if fr.Lifetime != cfg.MaxAge {
		t.Errorf("freshness lifetime %v, want %v", fr.Lifetime, cfg.MaxAge)
	}
	if !fr.HasValidator() || fr.ETag == "" {
		t.Errorf("no entity validator in emitted headers: %+v", fr)
	}

	// Warm hit inside the freshness window: served locally, zero bytes
	// on the wire, byte-identical body.
	clock = clock.Add(cfg.MaxAge / 2)
	g2, err := cc.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.FromCache || g2.TransferBytes != 0 {
		t.Fatalf("warm fetch not a local hit: %+v", g2)
	}
	if !bytes.Equal(g1.Body, g2.Body) {
		t.Error("cache hit served different bytes")
	}
	if cache.Hits() != 1 {
		t.Errorf("cache hits = %d, want 1", cache.Hits())
	}
	if cc.BytesSaved != int64(len(g1.Body)) {
		t.Errorf("BytesSaved = %d after one hit, want body size %d", cc.BytesSaved, len(g1.Body))
	}

	// Age the entry past MaxAge: the next fetch revalidates and the
	// server answers a header-only 304.
	clock = clock.Add(cfg.MaxAge + time.Minute)
	savedBefore := cc.BytesSaved
	g3, err := cc.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if !g3.Revalidated || g3.FromCache {
		t.Fatalf("stale fetch did not revalidate: %+v", g3)
	}
	if g3.Status != 200 {
		t.Errorf("revalidated fetch surfaces stored status %d, want 200", g3.Status)
	}
	if !bytes.Equal(g1.Body, g3.Body) {
		t.Error("revalidated fetch served different bytes")
	}
	if g3.TransferBytes <= 0 || g3.TransferBytes >= int64(len(g1.Body)) {
		t.Errorf("revalidation transferred %d bytes, want header-only (0 < n < %d)", g3.TransferBytes, len(g1.Body))
	}
	if cache.Revalidations() != 1 {
		t.Errorf("cache revalidations = %d, want 1", cache.Revalidations())
	}
	if cc.BytesSaved <= savedBefore {
		t.Error("revalidation recorded no saved bytes")
	}

	// The server side observed exactly one conditional hit.
	if got := s.Stats().Snapshot().Counters[`http.requests{code="304"}`]; got != 1 {
		t.Errorf("server served %d × 304, want 1", got)
	}
	if got := s.Stats().Counter("http.revalidated"); got != 1 {
		t.Errorf("server http.revalidated = %d, want 1", got)
	}

	// Revalidation freshened the entry: the next fetch is local again.
	clock = clock.Add(cfg.MaxAge / 2)
	g4, err := cc.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if !g4.FromCache {
		t.Fatalf("post-revalidation fetch not a local hit: %+v", g4)
	}

	// The same machinery works for the expensive dataset route.
	dsURL := ts.URL + "/v1/dataset/0?wait=1"
	d1, err := cc.Get(dsURL)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := cc.Get(dsURL)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Status != 200 || !d2.FromCache || !bytes.Equal(d1.Body, d2.Body) {
		t.Errorf("dataset round trip: d1=%+v d2.FromCache=%v", d1.Status, d2.FromCache)
	}
}
