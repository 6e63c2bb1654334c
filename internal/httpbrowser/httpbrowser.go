// Package httpbrowser is a real-HTTP page loader: it GETs a document
// with net/http, discovers sub-resources by parsing the delivered bodies
// (internal/htmlx + internal/bodyscan), fetches the whole dependency
// tree with initiator tracking, and emits a HAR log — the same artifact
// the virtual-time engine produces, but measured on the wire.
//
// This is the repository's chromedp analogue: everything the analysis
// stack consumes can be produced against any HTTP server, in particular
// internal/webserve's loopback web. Timings are wall-clock and therefore
// not deterministic; use internal/browser for calibrated experiments.
//
//detlint:allow walltime -- live-web measurement: the wall clock IS the instrument here, by design
package httpbrowser

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/bodyscan"
	"repro/internal/har"
	"repro/internal/urlx"
)

// Config parameterizes a Browser.
type Config struct {
	// Client issues the requests (default http.DefaultClient). Use
	// webserve.Server.Client() for the loopback web.
	Client *http.Client
	// MaxObjects bounds a page load (default 500).
	MaxObjects int
	// ForceScheme rewrites every discovered URL's scheme before
	// fetching. The loopback test web speaks plain HTTP while generated
	// markup mixes schemes; set "http" there. "" leaves URLs alone.
	ForceScheme string
}

func (c Config) withDefaults() Config {
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.MaxObjects <= 0 {
		c.MaxObjects = 500
	}
	return c
}

const (
	// maxDepth bounds dependency recursion.
	maxDepth = 6
	// parallelism bounds concurrent fetches.
	parallelism = 6
	// userAgent is sent with every request; like the paper's crawler it
	// identifies the project (§3 ethics).
	userAgent = "hispar-repro/1.0 (+https://example.org/hispar-repro)"
)

// Browser loads pages over real HTTP.
type Browser struct {
	cfg Config
}

// New creates a Browser.
func New(cfg Config) *Browser {
	return &Browser{cfg: cfg.withDefaults()}
}

// fetchResult carries one completed request.
type fetchResult struct {
	entry har.Entry
	refs  []string
	url   string
	depth int
	err   error
}

// Load fetches pageURL and its dependency tree, returning a HAR log.
func (b *Browser) Load(pageURL string) (*har.Log, error) {
	norm, ok := urlx.Normalize(pageURL)
	if !ok {
		return nil, fmt.Errorf("httpbrowser: bad URL %q", pageURL)
	}
	nav := time.Now()
	log := &har.Log{Page: har.Page{ID: norm, URL: norm, NavigationStart: nav}}

	type task struct {
		url       string
		initiator string
		depth     int
	}
	seen := map[string]bool{norm: true}
	queue := []task{{url: norm}}
	results := make(map[string]*fetchResult)

	sem := make(chan struct{}, parallelism)
	scheduled := 0
	for len(queue) > 0 && scheduled < b.cfg.MaxObjects {
		batch := queue
		queue = nil
		var wg sync.WaitGroup
		var mu sync.Mutex
		for _, t := range batch {
			if scheduled >= b.cfg.MaxObjects {
				break
			}
			scheduled++
			wg.Add(1)
			sem <- struct{}{}
			go func(t task) {
				defer wg.Done()
				defer func() { <-sem }()
				fr := b.fetch(t.url, t.initiator, t.depth, nav)
				mu.Lock()
				results[t.url] = fr
				mu.Unlock()
			}(t)
		}
		wg.Wait()
		// Expand the frontier from this wave's bodies.
		for _, t := range batch {
			fr := results[t.url]
			if fr == nil || fr.err != nil || t.depth >= maxDepth {
				continue
			}
			for _, ref := range fr.refs {
				abs, ok := urlx.Resolve(t.url, ref)
				if !ok {
					continue
				}
				if b.cfg.ForceScheme != "" {
					abs = urlx.WithScheme(abs, b.cfg.ForceScheme)
				}
				if seen[abs] {
					continue
				}
				seen[abs] = true
				queue = append(queue, task{url: abs, initiator: t.url, depth: t.depth + 1})
			}
		}
	}

	root, ok := results[norm]
	if !ok || root.err != nil {
		if root != nil && root.err != nil {
			return nil, fmt.Errorf("httpbrowser: root fetch failed: %w", root.err)
		}
		return nil, fmt.Errorf("httpbrowser: root never fetched")
	}
	if root.entry.Response.Status >= 400 {
		return nil, fmt.Errorf("httpbrowser: root returned %d", root.entry.Response.Status)
	}
	appendEntries(log, results, norm)
	// Navigation timing: approximate first paint as the root document's
	// completion (wall-clock loads have no render model) and onLoad as
	// the last entry's end.
	var onLoad time.Duration
	for i := range log.Entries {
		end := log.Entries[i].StartedAt.Add(log.Entries[i].Time).Sub(nav)
		if end > onLoad {
			onLoad = end
		}
	}
	log.Page.Timings = har.PageTimings{
		FirstPaint: root.entry.Time,
		OnLoad:     onLoad,
		SpeedIndex: root.entry.Time,
	}
	return log, nil
}

// appendEntries walks results depth-first from the root so initiators
// precede their children (what depgraph expects of a HAR).
func appendEntries(log *har.Log, results map[string]*fetchResult, rootURL string) {
	children := make(map[string][]string)
	var order []string
	for u, fr := range results {
		if fr.err != nil {
			continue
		}
		if u == rootURL {
			continue
		}
		children[fr.entry.Initiator] = append(children[fr.entry.Initiator], u)
	}
	var walk func(u string)
	walk = func(u string) {
		order = append(order, u)
		kids := children[u]
		sort.Strings(kids) // stable order: results is a map
		for _, k := range kids {
			walk(k)
		}
	}
	walk(rootURL)
	for _, u := range order {
		if fr := results[u]; fr != nil && fr.err == nil {
			log.Entries = append(log.Entries, fr.entry)
		}
	}
}

// fetch performs one GET and scans the body for references.
func (b *Browser) fetch(url, initiator string, depth int, nav time.Time) *fetchResult {
	fr := &fetchResult{url: url, depth: depth}
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		fr.err = err
		return fr
	}
	req.Header.Set("User-Agent", userAgent)
	start := time.Now()
	resp, err := b.cfg.Client.Do(req)
	if err != nil {
		fr.err = err
		return fr
	}
	body, err := io.ReadAll(resp.Body)
	// The body was drained above; a Close error here carries no signal.
	_ = resp.Body.Close()
	if err != nil {
		fr.err = err
		return fr
	}
	elapsed := time.Since(start)

	// http.Header is a map: emit headers in sorted order so the HAR
	// artifact is stable for a given server response.
	names := make([]string, 0, len(resp.Header))
	for name := range resp.Header {
		names = append(names, name)
	}
	sort.Strings(names)
	var headers []har.Header
	for _, name := range names {
		for _, v := range resp.Header[name] {
			headers = append(headers, har.Header{Name: name, Value: v})
		}
	}
	mime := resp.Header.Get("Content-Type")
	fr.entry = har.Entry{
		StartedAt: start,
		Time:      elapsed,
		Request:   har.Request{Method: "GET", URL: url},
		Response: har.Response{
			Status:   resp.StatusCode,
			Headers:  headers,
			MIMEType: mime,
			BodySize: int64(len(body)),
		},
		Timings:   har.Timings{Send: time.Millisecond, Wait: elapsed / 2, Receive: elapsed / 2, DNS: har.NotApplicable, Connect: har.NotApplicable, SSL: har.NotApplicable},
		Initiator: initiator,
		Depth:     depth,
	}
	if resp.StatusCode == 200 {
		fr.refs = bodyscan.Refs(mime, string(body))
	}
	return fr
}
