package core

// Warm (repeat-view) studies: the consequence of the §5.1 cacheability
// asymmetry. Every page is loaded twice — cold into an empty browser
// cache, then again RevisitDelay later against the primed cache — and
// the pair quantifies what a revisit saves per page type: bytes that
// never cross the network, requests answered locally or by a 304, and
// the resulting onLoad speedup. Internal pages, carrying a larger
// cacheable-byte fraction (Fig 4a), save strictly more than landing
// pages.

import (
	"fmt"
	"time"

	"repro/internal/hispar"
	"repro/internal/runstats"
	"repro/internal/trace"
	"repro/internal/webgen"
)

// WarmConfig parameterizes the cold→warm pair runner.
type WarmConfig struct {
	// RevisitDelay is the virtual time between the cold load and the
	// warm revisit (default 30m): long enough that short-lived
	// responses go stale and must revalidate, short enough that typical
	// static assets are still fresh.
	RevisitDelay time.Duration
	// Trace, when non-nil, receives the run's site spans and — at higher
	// detail levels — the load/exchange/phase spans of both legs of every
	// pair, merged in rank order exactly as for RunStream.
	Trace *trace.Tracer
	// Sinks receive every site in rank order (e.g. NewWarmCSVSink).
	Sinks []Sink[WarmSiteResult]
	// Logs, when non-nil, receives both legs of every measured pair,
	// cold then warm (see LogHook).
	Logs LogHook
}

func (c WarmConfig) withDefaults() WarmConfig {
	if c.RevisitDelay <= 0 {
		c.RevisitDelay = 30 * time.Minute
	}
	return c
}

// PagePair is one page's cold/warm measurement pair. The study's legs
// carry every scalar of a PageMeasurement and leave its three per-page
// lists (DepthCounts, WaitTimes, ThirdParties) nil: no reader of a pair
// reads them, and a kept study holds one pair per page.
type PagePair struct {
	Cold PageMeasurement
	Warm PageMeasurement
}

// ByteSavings is the fraction of cold-load transfer bytes the warm load
// avoided (1 − warm/cold).
func (p *PagePair) ByteSavings() float64 {
	if p.Cold.TransferBytes == 0 {
		return 0
	}
	return 1 - float64(p.Warm.TransferBytes)/float64(p.Cold.TransferBytes)
}

// RequestSavings is the fraction of cold-load network requests the warm
// load avoided (cache hits; 304s still count as network requests).
func (p *PagePair) RequestSavings() float64 {
	if p.Cold.NetworkRequests == 0 {
		return 0
	}
	return 1 - float64(p.Warm.NetworkRequests)/float64(p.Cold.NetworkRequests)
}

// OnLoadSpeedup is cold onLoad over warm onLoad (>1 = warm is faster).
func (p *PagePair) OnLoadSpeedup() float64 {
	if p.Warm.OnLoad <= 0 {
		return 0
	}
	return float64(p.Cold.OnLoad) / float64(p.Warm.OnLoad)
}

// WarmSiteResult is one site's cold/warm pairs.
type WarmSiteResult struct {
	Domain   string
	Rank     int
	Category string
	Landing  PagePair
	Internal []PagePair
}

// InternalMedian applies f to every internal pair and returns the
// median.
func (s *WarmSiteResult) InternalMedian(f func(*PagePair) float64) float64 {
	return medianOf(s.Internal, f)
}

// WarmStudyResult is a full cold→warm study over a list. Sites holds the
// survivors in list order; RunWarmStream leaves it empty.
type WarmStudyResult struct {
	List         *hispar.List
	RevisitDelay time.Duration
	Sites        []WarmSiteResult
	Outcomes     []Outcome
	Stats        runstats.Snapshot
}

// FailedSites returns how many input sites yielded no measurement.
func (r *WarmStudyResult) FailedSites() int { return failedSites(r.Outcomes) }

// loadPair performs one page's cold load into the worker's cache,
// emptied by Reset, advances the site clock by the revisit delay, and
// performs the warm load against the primed cache. Both loads retry per
// the study's fault policy and count their attempts and retries into
// out; a warm attempt that dies mid-load leaves the cache with whatever
// the completed fetches stored or freshened — never a corrupted entry —
// so the retry revalidates from intact state. Both logs are measured
// through the worker's measurer and go back to the browser before the
// pair returns: the warm log's cache-served entries carry the cache's
// stored headers, which the next pair's Reset zeroes.
func (st *Study) loadPair(sc *siteCtx, out *Outcome, m *webgen.PageModel, delay time.Duration) (PagePair, error) {
	sc.cache.Reset()
	sc.b.SetCache(sc.cache)
	defer sc.b.SetCache(nil)

	coldLog, err := st.loadRevisitWithRetry(sc, out, m, 0, 0)
	if err != nil {
		return PagePair{}, err
	}
	defer st.release(sc, coldLog)
	sc.clock.Advance(delay)
	warmLog, err := st.loadRevisitWithRetry(sc, out, m, 0, delay)
	if err != nil {
		return PagePair{}, err
	}
	defer st.release(sc, warmLog)
	sc.stats.Commit(runstats.Update{Series: warmPairs, Delta: 1},
		runstats.Update{Series: warmCacheHits, Delta: int64(sc.cache.Hits())},
		runstats.Update{Series: warmRevalidations, Delta: int64(sc.cache.Revalidations())})
	pair := PagePair{
		Cold: sc.ms.measurePage(coldLog, m, st.az, dropLists),
		Warm: sc.ms.measurePage(warmLog, m, st.az, dropLists),
	}
	sc.logs.emit(coldLog, false)
	sc.logs.emit(warmLog, true)
	return pair, nil
}

// measureSiteWarm measures one site's cold/warm pairs with the same
// degradation policy as measureSiteResilient: the landing pair must
// survive, internal pages that exhaust retries are dropped.
//
//detlint:hotpath -- the warm per-site step; the engine calls it through a func value
func (st *Study) measureSiteWarm(w *worker, i int, set hispar.URLSet, rec *trace.Recorder, rs *runstats.Set, delay time.Duration) (WarmSiteResult, Outcome) {
	return measureSite(st, w, i, set, rec, rs, func(sc *siteCtx, site *webgen.Site, out *Outcome) (WarmSiteResult, error) {
		res := WarmSiteResult{Domain: set.Domain, Rank: set.Rank, Category: string(site.Category),
			Internal: make([]PagePair, 0, len(set.Internal))}

		// Landing page: one cold/warm pair (the repeat-view study needs the
		// pair, not the cold study's fetch medianization).
		model := sc.pages.Build(site.Landing())
		pair, err := st.loadPair(sc, out, model, delay)
		if err != nil {
			return res, err
		}
		res.Landing = pair

		for _, u := range set.Internal {
			page, ok := st.web.PageByURL(u)
			if !ok {
				return res, fmt.Errorf("URL %s %w", u, errNotInSnapshot)
			}
			im := sc.pages.Build(page)
			pair, err := st.loadPair(sc, out, im, delay)
			if err != nil {
				out.FailedPages++
				continue
			}
			res.Internal = append(res.Internal, pair)
		}
		return res, nil
	})
}

// RunWarmStream measures every site's cold→warm pairs on the shared
// study engine, with the same isolation, window, tracing and degradation
// guarantees as RunStream: results are identical at any worker count,
// each site reaches the sinks in rank order and is then dropped, failed
// sites are recorded in Outcomes, and the failure budget decides whether
// an aggregate error rides along with the result, which is never nil.
func (st *Study) RunWarmStream(list *hispar.List, wcfg WarmConfig) (*WarmStudyResult, error) {
	wcfg = wcfg.withDefaults()
	measure := func(w *worker, i int, set hispar.URLSet, rec *trace.Recorder, rs *runstats.Set) (WarmSiteResult, Outcome) {
		return st.measureSiteWarm(w, i, set, rec, rs, wcfg.RevisitDelay)
	}
	run, err := runSites(st, list, 0, wcfg.Trace, wcfg.Logs, measure, wcfg.Sinks)
	return &WarmStudyResult{List: list, RevisitDelay: wcfg.RevisitDelay,
		Outcomes: run.outcomes, Stats: run.stats.Snapshot()}, err
}

// RunWarm is RunWarmStream with a collecting sink: the result's Sites
// holds every survivor in rank order.
func (st *Study) RunWarm(list *hispar.List, wcfg WarmConfig) (*WarmStudyResult, error) {
	col := &Collector[WarmSiteResult]{}
	wcfg.Sinks = append(wcfg.Sinks[:len(wcfg.Sinks):len(wcfg.Sinks)], col)
	res, err := st.RunWarmStream(list, wcfg)
	res.Sites = col.Sites
	return res, err
}
