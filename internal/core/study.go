package core

import (
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/adblock"
	"repro/internal/browser"
	"repro/internal/cdn"
	"repro/internal/cdndetect"
	"repro/internal/dnssim"
	"repro/internal/har"
	"repro/internal/hispar"
	"repro/internal/psl"
	"repro/internal/runstats"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/webgen"
)

// StudyConfig parameterizes a full measurement run over a Hispar list.
type StudyConfig struct {
	Seed int64
	// LandingFetches is how many times each landing page is loaded (the
	// paper uses 10 and takes medians; internal pages are loaded once).
	LandingFetches int
	// Workers bounds load parallelism (default: GOMAXPROCS). The worker
	// count never changes what is measured — only how fast it runs.
	Workers int
	// CDNWarmthRate and CDNWarmthCeiling shape the popularity→edge-hit
	// curve (see internal/cdn). The defaults are calibrated so the H1K
	// study lands near the paper's hit-rate asymmetry.
	CDNWarmthRate    float64
	CDNWarmthCeiling float64

	// Faults injects network faults (timeouts, truncations, loss) into
	// every page load; the zero value injects nothing and reproduces the
	// fault-free study byte for byte.
	Faults simnet.FaultConfig
	// DNSFailProb injects transient resolver failures at this rate
	// (0 = never). Failures are never cached, so retries can succeed.
	DNSFailProb float64
	// MaxAttempts bounds page-load attempts per page, first try included
	// (default 3).
	MaxAttempts int
	// RetryBackoff is the virtual-time wait before the first retry; it
	// doubles per retry up to RetryBackoffCap (defaults 30s and 4m).
	RetryBackoff    time.Duration
	RetryBackoffCap time.Duration
	// FailureBudget is the fraction of sites allowed to fail before Run
	// reports the aggregate error alongside the partial result
	// (default 0.25; negative means unlimited).
	FailureBudget float64
	// SitePacing is the virtual-time spacing between site measurement
	// windows (default 7m — it spreads the run over the paper's
	// multi-day window, letting resolver TTLs expire between sites).
	SitePacing time.Duration
}

func (c StudyConfig) withDefaults() StudyConfig {
	if c.LandingFetches <= 0 {
		c.LandingFetches = 10
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CDNWarmthRate <= 0 {
		c.CDNWarmthRate = 2.2
	}
	if c.CDNWarmthCeiling <= 0 {
		c.CDNWarmthCeiling = 0.97
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 30 * time.Second
	}
	if c.RetryBackoffCap <= 0 {
		c.RetryBackoffCap = 4 * time.Minute
	}
	if c.FailureBudget == 0 {
		c.FailureBudget = 0.25
	}
	if c.SitePacing <= 0 {
		c.SitePacing = 7 * time.Minute
	}
	return c
}

// SiteResult is one site's measurements: the landing page (timing fields
// medianized over repeated fetches) and each measured internal page.
type SiteResult struct {
	Domain   string
	Rank     int
	Category string
	Landing  PageMeasurement
	Internal []PageMeasurement
}

// InternalMedian applies f to every internal page and returns the median.
func (s *SiteResult) InternalMedian(f func(*PageMeasurement) float64) float64 {
	return medianOf(s.Internal, f)
}

// medianOf applies f to every element of xs and returns the median, or
// 0 for none — the one implementation behind the cold and warm
// InternalMedian methods.
func medianOf[T any](xs []T, f func(*T) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	vals := make([]float64, len(xs))
	for i := range xs {
		vals[i] = f(&xs[i])
	}
	return stats.SortedInPlace(vals).Median()
}

// Delta returns f(landing) − median_internal(f): the paper's per-site
// difference statistic (Figs 2, 9, 10).
func (s *SiteResult) Delta(f func(*PageMeasurement) float64) float64 {
	return f(&s.Landing) - s.InternalMedian(f)
}

// Ratio returns f(landing) / median_internal(f), or 0 when undefined;
// used for the paper's geometric means.
func (s *SiteResult) Ratio(f func(*PageMeasurement) float64) float64 {
	den := s.InternalMedian(f)
	if den == 0 {
		return 0
	}
	return f(&s.Landing) / den
}

// UnseenThirdParties counts third-party eTLD+1s contacted by at least one
// internal page but never by the landing page (Fig 8b).
func (s *SiteResult) UnseenThirdParties() int {
	onLanding := make(map[string]bool, len(s.Landing.ThirdParties))
	for _, tp := range s.Landing.ThirdParties {
		onLanding[tp] = true
	}
	seen := make(map[string]bool)
	for i := range s.Internal {
		for _, tp := range s.Internal[i].ThirdParties {
			if !onLanding[tp] {
				seen[tp] = true
			}
		}
	}
	return len(seen)
}

// InsecureInternal counts measured internal pages served over plain HTTP
// (Fig 8a).
func (s *SiteResult) InsecureInternal() int {
	n := 0
	for i := range s.Internal {
		if s.Internal[i].Scheme == "http" {
			n++
		}
	}
	return n
}

// MixedInternal counts measured internal pages with mixed content.
func (s *SiteResult) MixedInternal() int {
	n := 0
	for i := range s.Internal {
		if s.Internal[i].MixedContent {
			n++
		}
	}
	return n
}

// StudyResult is a full study over a list. Sites holds the survivors in
// list order; Outcomes records the disposition of every input site —
// including the failed ones — and Stats is the run's metric snapshot.
type StudyResult struct {
	List     *hispar.List
	Sites    []SiteResult
	Outcomes []Outcome
	Stats    runstats.Snapshot
}

// FailedSites returns how many input sites yielded no measurement.
func (r *StudyResult) FailedSites() int { return failedSites(r.Outcomes) }

// Study runs page loads and measurement for every URL set in the list.
type Study struct {
	cfg      StudyConfig
	web      *webgen.Web
	resolver *dnssim.Resolver
	az       Analyzers
	cdnSeed  int64
	clock    *vclock.Clock
	epoch    time.Time
	stats    *runstats.Set
}

// NewStudy prepares a study over one web snapshot. It wires the full
// analysis stack: a warmed ISP resolver over the web's DNS authority, a
// CDN detector fed by that resolver, the public-suffix list, and an
// adblock engine compiled from the synthetic Easylist.
func NewStudy(web *webgen.Web, cfg StudyConfig) (*Study, error) {
	cfg = cfg.withDefaults()
	// The measurement window spans days (the paper spreads its 30 fetches
	// per site over 5 days). The shared clock and resolver back the
	// analysis stack only; each site gets its own clock and resolver so
	// measurements never depend on which worker ran which site first.
	epoch := time.Date(2020, 3, 12, 0, 0, 0, 0, time.UTC)
	clock := vclock.New(epoch)
	resolver := dnssim.NewResolver(dnssim.ResolverConfig{
		Name:          "isp",
		Seed:          cfg.Seed,
		ClientRTT:     3 * time.Millisecond,
		UpstreamTime:  80 * time.Millisecond,
		WarmQueryRate: 0.8,
	}, web.Authority(), clock.Now)
	engine, _ := adblock.Compile(webgen.EasylistFor(web.ThirdParties()))
	if engine.Len() == 0 {
		return nil, fmt.Errorf("core: empty adblock engine")
	}
	return &Study{
		cfg:      cfg,
		web:      web,
		resolver: resolver,
		az: Analyzers{
			PSL:     psl.Default(),
			Adblock: engine,
			CDN:     cdndetect.New(resolver),
		},
		cdnSeed: cfg.Seed ^ 0x0cd17,
		clock:   clock,
		epoch:   epoch,
		stats:   runstats.NewSet(),
	}, nil
}

// Analyzers exposes the study's analysis stack (useful for tests).
func (st *Study) Analyzers() Analyzers { return st.az }

// newBrowser builds a browser sharing the study's resolver; the engine
// builds one up front to validate the configuration.
func (st *Study) newBrowser(seed int64) (*browser.Browser, error) {
	return st.newBrowserWith(seed, st.resolver)
}

func (st *Study) newBrowserWith(seed int64, resolver *dnssim.Resolver) (*browser.Browser, error) {
	warmth := cdn.PopularityWarmth(st.cfg.CDNWarmthRate, st.cfg.CDNWarmthCeiling)
	var ctr int64
	return browser.New(browser.Config{
		Seed:     seed,
		Resolver: resolver,
		Net:      simnet.Config{Faults: st.cfg.Faults},
		CDNFactory: func() *cdn.Network {
			n := atomic.AddInt64(&ctr, 1)
			return cdn.NewNetwork(1<<14, warmth, seed+n*104729)
		},
	})
}

// siteCtx is one site's isolated measurement context: its own virtual
// clock pinned to the site's slot in the study window, its own resolver,
// and its own browser. Nothing here is shared across sites, which is
// what makes a study's measurements identical at any worker count.
type siteCtx struct {
	clock *vclock.Clock
	b     *browser.Browser
	// rec, when non-nil, collects this site's spans (see internal/trace);
	// the streaming fold merges it in rank order after the site retires.
	rec *trace.Recorder
}

// newSiteCtx builds the context for site i.
func (st *Study) newSiteCtx(i int) (*siteCtx, error) {
	clock := vclock.New(st.epoch.Add(time.Duration(i) * st.cfg.SitePacing))
	resolver := dnssim.NewResolver(dnssim.ResolverConfig{
		Name:          "isp",
		Seed:          st.cfg.Seed + int64(i)*7919,
		ClientRTT:     3 * time.Millisecond,
		UpstreamTime:  80 * time.Millisecond,
		WarmQueryRate: 0.8,
		FailProb:      st.cfg.DNSFailProb,
	}, st.web.Authority(), clock.Now)
	b, err := st.newBrowserWith(st.cfg.Seed+int64(i)*6151, resolver)
	if err != nil {
		return nil, err
	}
	return &siteCtx{clock: clock, b: b}, nil
}

// loadRevisitWithRetry attempts one page load up to MaxAttempts times,
// backing off in virtual time with doubling waits capped at
// RetryBackoffCap, and counts every attempt and retry into out. Each
// attempt redraws the injected faults (the attempt number feeds the
// fault RNG seed), so transient failures clear the way they would in a
// real re-crawl. revisit 0 is the cold load, anything else a warm repeat
// view against whatever cache the browser currently holds.
func (st *Study) loadRevisitWithRetry(sc *siteCtx, out *Outcome, m *webgen.PageModel, fetchID int, revisit time.Duration) (*har.Log, error) {
	backoff := st.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		out.Attempts++
		// Anchor the attempt's spans at the site clock's virtual now, so
		// loads and their retries tile the site's timeline in order.
		sc.rec.SetBase(sc.clock.Now())
		log, err := sc.b.LoadRevisit(m, fetchID, attempt, revisit) //detlint:allow taint -- the chain bottoms out in dnssim's vclock.Wall telemetry read; every span field is stamped from sc.clock virtual time, and TestStreamTraceInvariantAcrossWorkers pins the byte-identity
		if err == nil {
			sc.clock.Advance(log.Page.Timings.OnLoad)
			st.stats.Inc("loads.ok", 1)
			st.stats.Observe("load.onload.ms", float64(log.Page.Timings.OnLoad.Milliseconds()))
			return log, nil
		}
		class := Classify(err)
		st.stats.Inc("loads.err."+string(class), 1)
		if !class.Retryable() || attempt+1 >= st.cfg.MaxAttempts {
			return nil, err
		}
		if rec := sc.rec; rec != nil && rec.Detail() >= trace.DetailLoads {
			rec.Record(trace.Span{
				ID: trace.DeriveID("backoff", strconv.Itoa(rec.Site()), m.URL,
					strconv.Itoa(fetchID), trace.AttemptKey(attempt, revisit)),
				Parent: rec.Parent(),
				Name:   "backoff " + m.URL, Cat: "retry",
				Start: sc.clock.Now(), Dur: backoff,
				Attrs: []trace.Attr{
					{Key: "attempt", Val: strconv.Itoa(attempt)},
					{Key: "class", Val: string(class)},
				},
			})
		}
		sc.clock.Advance(backoff)
		out.Retries++
		st.stats.Inc("retries.total", 1)
		st.stats.Observe("retry.backoff.ms", float64(backoff.Milliseconds()))
		backoff *= 2
		if backoff > st.cfg.RetryBackoffCap {
			backoff = st.cfg.RetryBackoffCap
		}
	}
}

// measureSiteResilient measures one site with per-page retries and
// graceful degradation: the landing page must survive (its loss fails
// the site), while internal pages that exhaust their retries are dropped
// from the result and counted in the outcome.
//
//detlint:hotpath -- the cold per-site step; the engine calls it through a func value
func (st *Study) measureSiteResilient(i int, set hispar.URLSet, rec *trace.Recorder) (SiteResult, Outcome) {
	return measureSite(st, i, set, rec, func(sc *siteCtx, site *webgen.Site, out *Outcome) (SiteResult, error) {
		res := SiteResult{Domain: set.Domain, Rank: set.Rank, Category: string(site.Category)}

		// Landing page: repeated cold-cache fetches, median timings.
		model := site.Landing().Build()
		var fetches []PageMeasurement
		for f := 0; f < st.cfg.LandingFetches; f++ {
			log, err := st.loadRevisitWithRetry(sc, out, model, f, 0)
			if err != nil {
				return res, err
			}
			fetches = append(fetches, MeasurePage(log, model, st.az))
		}
		res.Landing = medianizeTimings(fetches)

		// Internal pages: one fetch each. A page that exhausts its retries
		// is dropped — the paper's harness kept sites whose internal URLs
		// partially failed rather than discarding the whole site.
		for _, u := range set.Internal {
			page, ok := st.web.PageByURL(u)
			if !ok {
				return res, fmt.Errorf("URL %s %w", u, errNotInSnapshot)
			}
			im := page.Build()
			log, err := st.loadRevisitWithRetry(sc, out, im, 0, 0)
			if err != nil {
				out.FailedPages++
				st.stats.Inc("pages.dropped", 1)
				continue
			}
			res.Internal = append(res.Internal, MeasurePage(log, im, st.az))
		}
		st.stats.Inc("pages.measured", int64(1+len(res.Internal)))
		return res, nil
	})
}

// medianizeTimings collapses repeated fetches of the same page into one
// measurement whose timing fields are medians; structural fields are
// identical across fetches and taken from the first. One buffer serves
// all seven medians — this runs once per landing page, every site.
func medianizeTimings(fetches []PageMeasurement) PageMeasurement {
	out := fetches[0]
	buf := make([]float64, len(fetches))
	med := func(f func(*PageMeasurement) float64) float64 {
		for i := range fetches {
			buf[i] = f(&fetches[i])
		}
		return stats.SortedInPlace(buf).Median()
	}
	out.PLT = time.Duration(med(func(p *PageMeasurement) float64 { return float64(p.PLT) }))
	out.SpeedIndex = time.Duration(med(func(p *PageMeasurement) float64 { return float64(p.SpeedIndex) }))
	out.OnLoad = time.Duration(med(func(p *PageMeasurement) float64 { return float64(p.OnLoad) }))
	out.HandshakeTime = time.Duration(med(func(p *PageMeasurement) float64 { return float64(p.HandshakeTime) }))
	out.Handshakes = int(med(func(p *PageMeasurement) float64 { return float64(p.Handshakes) }))
	out.CDNHits = int(med(func(p *PageMeasurement) float64 { return float64(p.CDNHits) }))
	out.CDNMisses = int(med(func(p *PageMeasurement) float64 { return float64(p.CDNMisses) }))
	return out
}

// Run measures every site in the list, in parallel, and degrades
// gracefully: sites that fail after retries are recorded in Outcomes and
// excluded from Sites instead of killing the run. Every site is always
// attempted — the failure budget decides only whether Run reports an
// aggregate error (errors.Join of the per-site failures) alongside the
// partial result. Measurements are a pure function of the list and the
// config: the worker count and scheduling order never change them.
//
// Run is a thin layer over RunStream with a collecting sink: the
// streaming engine does the measuring, and the sink rebuilds the
// in-memory survivors slice in rank order.
func (st *Study) Run(list *hispar.List) (*StudyResult, error) {
	col := &collectSink{}
	sres, err := st.RunStream(list, StreamConfig{Sinks: []SiteSink{col}})
	if sres == nil {
		return nil, err
	}
	return &StudyResult{
		List:     list,
		Sites:    col.sites,
		Outcomes: sres.Outcomes,
		Stats:    sres.Stats,
	}, err
}
