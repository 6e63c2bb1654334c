package browser

// The browser's private HTTP cache: the RFC 7234 subset warm
// (repeat-view) loads need. Implemented: freshness from Cache-Control
// max-age and the Age header, Expires, heuristic freshness from
// Last-Modified, no-store / no-cache / Pragma handling (`private` is
// storable — this is a private cache), and conditional revalidation via
// ETag / Last-Modified with 304 freshening per RFC 7234 §4.3.4. All
// header interpretation lives in internal/httpsem (ComputeFreshness);
// this file only stores and ages responses.

import (
	"time"

	"repro/internal/har"
	"repro/internal/httpsem"
)

// Cache is a private HTTP response cache. Like the Browser it serves,
// it is not safe for concurrent use: one Cache belongs to one
// measurement context.
type Cache struct {
	entries map[string]*cacheEntry

	hits          int
	revalidations int
	stores        int
}

// cacheEntry is one stored response.
type cacheEntry struct {
	status   int
	mime     string
	size     int64
	headers  []har.Header
	storedAt time.Time // absolute virtual time the response was stored or last freshened
	fresh    httpsem.Freshness
}

// NewCache creates an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*cacheEntry)}
}

// Len returns the number of stored responses.
func (c *Cache) Len() int { return len(c.entries) }

// Hits returns how many lookups were served fresh from the cache.
func (c *Cache) Hits() int { return c.hits }

// Revalidations returns how many stored responses were freshened by a
// 304.
func (c *Cache) Revalidations() int { return c.revalidations }

type cacheState int

const (
	cacheMiss cacheState = iota
	cacheFresh
	cacheStale
)

// lookup returns the stored entry for url and its freshness state at
// now. Stale entries are returned so the caller can revalidate.
func (c *Cache) lookup(url string, now time.Time) (*cacheEntry, cacheState) {
	e := c.entries[url]
	if e == nil {
		return nil, cacheMiss
	}
	if e.fresh.FreshAt(e.storedAt, now) {
		return e, cacheFresh
	}
	return e, cacheStale
}

// store records a successful response if storing it can ever pay off: it
// must be storable for a private cache, a plain 200, and either carry
// some freshness lifetime or a validator to revalidate with. Anything
// else (no-store, dynamic no-cache responses without validators, error
// statuses, redirects) is refetched in full on revisit.
func (c *Cache) store(url, method string, resp *har.Response, at time.Time) {
	if resp.Status != 200 {
		return
	}
	f := httpsem.ComputeFreshness(httpsem.Response{
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
	if !f.Storable {
		return
	}
	if f.AlwaysRevalidate && !f.HasValidator() {
		return
	}
	if f.Lifetime <= f.InitialAge && !f.HasValidator() {
		return
	}
	headers := make([]har.Header, len(resp.Headers))
	copy(headers, resp.Headers)
	c.entries[url] = &cacheEntry{
		status:   resp.Status,
		mime:     resp.MIMEType,
		size:     resp.BodySize,
		headers:  headers,
		storedAt: at,
		fresh:    f,
	}
	c.stores++
}

// freshen resets a stored response's age after a successful 304
// revalidation (RFC 7234 §4.3.4). A failed revalidation never reaches
// here, so a fault on the 304 exchange leaves the entry exactly as it
// was — stale but intact, ready for the next attempt.
func (c *Cache) freshen(url string, at time.Time) {
	if e := c.entries[url]; e != nil {
		e.storedAt = at
		c.revalidations++
	}
}
