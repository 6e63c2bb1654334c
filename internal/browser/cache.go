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
//
// A cache keeps its storage across Reset: the entry map's buckets, the
// chunks its entries are cut from and the one header slab their stored
// headers are windows of. A stored window is never rewritten before the
// next Reset, so a log whose cache-served entries carry stored headers
// stays valid until then.
type Cache struct {
	entries map[string]*cacheEntry
	// chunks hold the entries; used counts the slots handed out since
	// the last Reset. An entry's address never moves.
	chunks []*[entryChunk]cacheEntry
	used   int
	// hdrs holds every stored header list since the last Reset, each a
	// capped window, so an append to one reallocates instead of
	// overwriting the next.
	hdrs []har.Header

	hits          int
	revalidations int
	stores        int
}

// entryChunk is how many entries one chunk of a cache's entry storage
// holds: a typical page's cacheable objects.
const entryChunk = 64

// maxKeptChunks bounds the entry chunks Reset keeps, and maxKeptHeaders
// the header slab: room for a large page. Storage grown past them by
// a bigger page is left to the garbage collector at the next Reset, so
// a cache reused for a whole study holds a large page's storage, not
// its largest page's.
const (
	maxKeptChunks  = 8
	maxKeptHeaders = 4096
)

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

// Reset empties c and zeroes its counters, keeping its storage for the
// responses stored next: after Reset, c behaves exactly like NewCache().
// Every header list c stored before is zeroed, so no log that carries
// one may be read after Reset.
func (c *Cache) Reset() {
	clear(c.entries)
	for k := 0; k*entryChunk < c.used; k++ {
		*c.chunks[k] = [entryChunk]cacheEntry{}
	}
	if len(c.chunks) > maxKeptChunks {
		clear(c.chunks[maxKeptChunks:])
		c.chunks = c.chunks[:maxKeptChunks]
	}
	c.used = 0
	if cap(c.hdrs) > maxKeptHeaders {
		c.hdrs = nil
	} else {
		clear(c.hdrs)
		c.hdrs = c.hdrs[:0]
	}
	c.hits, c.revalidations, c.stores = 0, 0, 0
}

// newEntry returns a zeroed entry slot from c's chunks.
func (c *Cache) newEntry() *cacheEntry {
	k := c.used / entryChunk
	if k == len(c.chunks) {
		c.chunks = append(c.chunks, new([entryChunk]cacheEntry))
	}
	e := &c.chunks[k][c.used%entryChunk]
	c.used++
	return e
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
	h := har.ScanHeaders(resp.Headers)
	f := httpsem.ComputeFreshness(httpsem.Response{
		Method:       method,
		Status:       resp.Status,
		CacheControl: h.CacheControl,
		Pragma:       h.Pragma,
		Expires:      h.Expires,
		Date:         h.Date,
		Age:          h.Age,
		ETag:         h.ETag,
		LastModified: h.LastModified,
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
	k := len(c.hdrs)
	c.hdrs = append(c.hdrs, resp.Headers...)
	e := c.newEntry()
	*e = cacheEntry{
		status:   resp.Status,
		mime:     resp.MIMEType,
		size:     resp.BodySize,
		headers:  c.hdrs[k:len(c.hdrs):len(c.hdrs)],
		storedAt: at,
		fresh:    f,
	}
	c.entries[url] = e
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
