package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/browser"
	"repro/internal/cdn"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/har"
	"repro/internal/hispar"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/webgen"
)

// The replay repeats, from outside the engine, exactly what core's
// per-site step does — same clocks, resolvers, browsers, retry policy —
// so that every call into a layer can be timed on its own. The constants
// below are core's defaults, and studyConfig hands them to the engine
// too. The epoch and the per-site seed and resolver derivations are
// private to core and copied here; the replay must then reproduce the
// engine's summed onLoad time exactly, which catches any drift.
var studyEpoch = time.Date(2020, 3, 12, 0, 0, 0, 0, time.UTC)

const (
	sitePacing       = 7 * time.Minute
	maxAttempts      = 3
	retryBackoff     = 30 * time.Second
	retryBackoffCap  = 4 * time.Minute
	cdnWarmthRate    = 2.2
	cdnWarmthCeiling = 0.97
)

// layer indexes the replay's per-layer accumulators.
type layer int

const (
	layerBuild   layer = iota // webgen Page.Build
	layerLookup               // webgen SiteByDomain / PageByURL
	layerNew                  // dnssim.NewResolver + browser.New, per site
	layerLoad                 // Browser.LoadRevisit, per attempt
	layerMeasure              // core.MeasurePage
	layerFold                 // Aggregates.AccumulateSite
	layerSink                 // CSVSink.ConsumeSite, or WriteWarmCSV of the site
	numLayers
)

var layerNames = [numLayers]string{
	"webgen.build", "webgen.lookup", "browser.new", "browser.load",
	"core.measure", "core.fold", "core.sink",
}

// layerStat is one layer's call count, busy time and allocations.
type layerStat struct {
	calls  int64
	busy   time.Duration
	allocs uint64
}

// replayer replays a study serially, one span per layer call.
type replayer struct {
	w    workload
	seed int64
	web  *webgen.Web
	az   core.Analyzers
	agg  *core.Aggregates
	sink *core.CSVSink

	stats  [numLayers]layerStat
	spans  []trace.Span
	parent trace.SpanID
	seq    int
	ms     [2]runtime.MemStats

	loadsOK, pages int64
	onLoadMS       float64 // summed as core's load.onload.ms histogram sums it
	wall           time.Duration
}

func newReplayer(w workload, seed int64, web *webgen.Web, az core.Analyzers) (*replayer, error) {
	sink, err := core.NewCSVSink(io.Discard)
	if err != nil {
		return nil, err
	}
	return &replayer{w: w, seed: seed, web: web, az: az, agg: core.NewAggregates(), sink: sink}, nil
}

// call runs fn as one span of layer l. Allocations are read before and
// after, outside the timed interval.
func (rp *replayer) call(l layer, name string, fn func()) {
	runtime.ReadMemStats(&rp.ms[0])
	t := vclock.Wall()
	fn()
	d := vclock.WallSince(t)
	runtime.ReadMemStats(&rp.ms[1])
	s := &rp.stats[l]
	s.calls++
	s.busy += d
	s.allocs += rp.ms[1].Mallocs - rp.ms[0].Mallocs
	rp.seq++
	rp.spans = append(rp.spans, trace.Span{
		ID: trace.DeriveID("call", strconv.Itoa(rp.seq)), Parent: rp.parent,
		Name: name, Cat: layerNames[l], TID: 1, Start: t, Dur: d,
	})
}

// run replays every site of list under one root span.
func (rp *replayer) run(list *hispar.List) error {
	root := trace.DeriveID("replay", rp.w.name)
	start := vclock.Wall()
	for i, set := range list.Sets {
		siteStart := vclock.Wall()
		rp.parent = trace.SiteSpanID(set.Rank)
		var err error
		if rp.w.warm {
			err = rp.warmSite(i, set)
		} else {
			err = rp.coldSite(i, set)
		}
		if err != nil {
			return fmt.Errorf("site %s: %w", set.Domain, err)
		}
		rp.spans = append(rp.spans, trace.Span{
			ID: rp.parent, Parent: root, Name: "site " + set.Domain, Cat: "site",
			TID: 1, Start: siteStart, Dur: vclock.WallSince(siteStart),
		})
	}
	rp.wall = vclock.WallSince(start)
	rp.spans = append(rp.spans, trace.Span{
		ID: root, Name: "replay " + rp.w.name, Cat: "replay", TID: 1, Start: start, Dur: rp.wall,
	})
	return nil
}

// siteCtx is one site's private clock and browser, as core builds them.
type siteCtx struct {
	clock *vclock.Clock
	b     *browser.Browser
}

func (rp *replayer) newSite(i int) (*siteCtx, error) {
	sc := &siteCtx{}
	var err error
	rp.call(layerNew, "browser.new", func() {
		sc.clock = vclock.New(studyEpoch.Add(time.Duration(i) * sitePacing))
		resolver := dnssim.NewResolver(dnssim.ResolverConfig{
			Name:          "isp",
			Seed:          rp.seed + int64(i)*7919,
			ClientRTT:     3 * time.Millisecond,
			UpstreamTime:  80 * time.Millisecond,
			WarmQueryRate: 0.8,
			FailProb:      rp.w.dnsFail,
		}, rp.web.Authority(), sc.clock.Now)
		seed := rp.seed + int64(i)*6151
		warmth := cdn.PopularityWarmth(cdnWarmthRate, cdnWarmthCeiling)
		var n int64
		sc.b, err = browser.New(browser.Config{
			Seed:     seed,
			Resolver: resolver,
			Net:      simnet.Config{Faults: rp.w.faults},
			CDNFactory: func() *cdn.Network {
				n++
				return cdn.NewNetwork(1<<14, warmth, seed+n*104729)
			},
		})
	})
	return sc, err
}

func (rp *replayer) lookupSite(domain string) (*webgen.Site, error) {
	var site *webgen.Site
	var ok bool
	rp.call(layerLookup, domain, func() { site, ok = rp.web.SiteByDomain(domain) })
	if !ok {
		return nil, fmt.Errorf("site not in web snapshot")
	}
	return site, nil
}

func (rp *replayer) lookupPage(url string) (*webgen.Page, error) {
	var page *webgen.Page
	var ok bool
	rp.call(layerLookup, url, func() { page, ok = rp.web.PageByURL(url) })
	if !ok {
		return nil, fmt.Errorf("URL %s not in web snapshot", url)
	}
	return page, nil
}

func (rp *replayer) build(p *webgen.Page) *webgen.PageModel {
	var m *webgen.PageModel
	rp.call(layerBuild, p.URL(), func() { m = p.Build() })
	return m
}

func (rp *replayer) measure(log *har.Log, m *webgen.PageModel) core.PageMeasurement {
	var pm core.PageMeasurement
	rp.call(layerMeasure, m.URL, func() { pm = core.MeasurePage(log, m, rp.az) })
	return pm
}

// load is core's retry loop: up to maxAttempts attempts, backing off in
// virtual time after each retryable failure.
func (rp *replayer) load(sc *siteCtx, m *webgen.PageModel, fetchID int, revisit time.Duration) (*har.Log, error) {
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		var log *har.Log
		var err error
		rp.call(layerLoad, m.URL, func() { log, err = sc.b.LoadRevisit(m, fetchID, attempt, revisit) })
		if err == nil {
			sc.clock.Advance(log.Page.Timings.OnLoad)
			rp.loadsOK++
			rp.onLoadMS += float64(log.Page.Timings.OnLoad.Milliseconds())
			return log, nil
		}
		if !core.Classify(err).Retryable() || attempt+1 >= maxAttempts {
			return nil, err
		}
		sc.clock.Advance(backoff)
		backoff = min(2*backoff, retryBackoffCap)
	}
}

// coldSite replays one site of a cold study. The landing measurement is
// the first fetch: the engine's medianization of the fetches is private
// and costs next to nothing.
func (rp *replayer) coldSite(i int, set hispar.URLSet) error {
	sc, err := rp.newSite(i)
	if err != nil {
		return err
	}
	site, err := rp.lookupSite(set.Domain)
	if err != nil {
		return err
	}
	out := core.Outcome{Domain: set.Domain, Rank: set.Rank}
	res := core.SiteResult{Domain: set.Domain, Rank: set.Rank, Category: string(site.Category)}
	model := rp.build(site.Landing())
	for f := 0; f < rp.w.fetches; f++ {
		log, err := rp.load(sc, model, f, 0)
		if err != nil {
			return rp.retire(&core.SiteResult{}, &out)
		}
		if pm := rp.measure(log, model); f == 0 {
			res.Landing = pm
		}
	}
	for _, u := range set.Internal {
		page, err := rp.lookupPage(u)
		if err != nil {
			return err
		}
		m := rp.build(page)
		log, err := rp.load(sc, m, 0, 0)
		if err != nil {
			out.FailedPages++
			continue
		}
		res.Internal = append(res.Internal, rp.measure(log, m))
	}
	rp.pages += int64(1 + len(res.Internal))
	out.OK = true
	return rp.retire(&res, &out)
}

// retire folds and sinks one site the way the engine's fold does.
func (rp *replayer) retire(res *core.SiteResult, out *core.Outcome) error {
	if out.OK {
		rp.call(layerFold, res.Domain, func() { rp.agg.AccumulateSite(res) })
	}
	var err error
	rp.call(layerSink, out.Domain, func() { err = rp.sink.ConsumeSite(res, out) })
	return err
}

// warmSite replays one site of a cold→warm study.
func (rp *replayer) warmSite(i int, set hispar.URLSet) error {
	sc, err := rp.newSite(i)
	if err != nil {
		return err
	}
	site, err := rp.lookupSite(set.Domain)
	if err != nil {
		return err
	}
	res := core.WarmSiteResult{Domain: set.Domain, Rank: set.Rank, Category: string(site.Category)}
	pair, ok := rp.pair(sc, rp.build(site.Landing()))
	if !ok {
		return nil
	}
	res.Landing = pair
	for _, u := range set.Internal {
		page, err := rp.lookupPage(u)
		if err != nil {
			return err
		}
		if pair, ok := rp.pair(sc, rp.build(page)); ok {
			res.Internal = append(res.Internal, pair)
		}
	}
	rp.pages += int64(1 + len(res.Internal))
	one := &core.WarmStudyResult{RevisitDelay: rp.w.revisit, Sites: []core.WarmSiteResult{res}}
	rp.call(layerSink, set.Domain, func() { err = core.WriteWarmCSV(io.Discard, one) })
	return err
}

// pair is one page's cold load into a fresh cache and its warm revisit.
func (rp *replayer) pair(sc *siteCtx, m *webgen.PageModel) (core.PagePair, bool) {
	sc.b.SetCache(browser.NewCache())
	defer sc.b.SetCache(nil)
	coldLog, err := rp.load(sc, m, 0, 0)
	if err != nil {
		return core.PagePair{}, false
	}
	sc.clock.Advance(rp.w.revisit)
	warmLog, err := rp.load(sc, m, 0, rp.w.revisit)
	if err != nil {
		return core.PagePair{}, false
	}
	return core.PagePair{Cold: rp.measure(coldLog, m), Warm: rp.measure(warmLog, m)}, true
}

// record reports the per-layer numbers. refWall is the untraced engine's
// wall time over the same sites at one worker.
func (rp *replayer) record(r *report, refWall time.Duration) {
	wall := rp.wall.Seconds()
	perCall := func(l layer) (us, allocs float64) {
		s := rp.stats[l]
		if s.calls == 0 {
			return 0, 0
		}
		return float64(s.busy.Microseconds()) / float64(s.calls), float64(s.allocs) / float64(s.calls)
	}
	share := func(ls ...layer) float64 {
		var busy time.Duration
		for _, l := range ls {
			busy += rp.stats[l].busy
		}
		return busy.Seconds() / wall
	}
	r.values["webgen.build_us"], r.values["webgen.build_allocs"] = perCall(layerBuild)
	r.values["webgen.lookup_us"], _ = perCall(layerLookup)
	r.values["webgen.share"] = share(layerBuild, layerLookup)
	r.values["browser.new_us"], _ = perCall(layerNew)
	r.values["browser.load_us"], r.values["browser.load_allocs"] = perCall(layerLoad)
	r.values["browser.share"] = share(layerNew, layerLoad)
	r.values["core.measure_us"], r.values["core.measure_allocs"] = perCall(layerMeasure)
	r.values["core.measure_share"] = share(layerMeasure)
	r.values["core.fold_us"], _ = perCall(layerFold)
	r.values["core.sink_us"], _ = perCall(layerSink)
	r.values["core.fold_share"] = share(layerFold)
	r.values["core.sink_share"] = share(layerSink)
	r.values["trace.coverage"] = share(layerBuild, layerLookup, layerNew, layerLoad, layerMeasure, layerFold, layerSink)
	r.values["trace.overhead"] = wall/refWall.Seconds() - 1
}

// writeTrace writes the replay's spans as Chrome trace-event JSON.
func writeTrace(path string, spans []trace.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeJSON(f, spans); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
