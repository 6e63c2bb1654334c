// Package whatif evaluates the paper's implications (§5.1–§5.6) as
// counterfactuals: re-run the same page loads under a proposed
// optimization — TLS 1.3, QUIC, HTTP/2 multiplexing, server push,
// perfect preconnect hints, a perfect CDN hit ratio, or no CDN at all —
// and compare how much landing pages and internal pages each improve.
//
// The paper's warning is that optimizations designed and evaluated on
// landing pages overstate their benefit for the rest of the web:
// handshake-reducing transports help the page type with more origins and
// handshakes (landing, §5.6); cache improvements help the page type
// whose objects are popular (landing, §5.1); dependency-aware delivery
// helps the page type with the deeper graph (landing, §5.4). This
// package measures exactly those asymmetries.
package whatif

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/browser"
	"repro/internal/cdn"
	"repro/internal/dnssim"
	"repro/internal/hispar"
	"repro/internal/stats"
	"repro/internal/webgen"
)

// Scenario is one counterfactual configuration.
type Scenario struct {
	Name        string
	Description string
	// Protocol toggles browser-level optimizations.
	Protocol browser.Protocol
	// WarmthRate/WarmthCeiling override the CDN warmth curve; zero means
	// the baseline values.
	WarmthRate    float64
	WarmthCeiling float64
}

// Scenarios returns the §5/§6-motivated set.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:        "tls13",
			Description: "TLS 1.3 everywhere: 1-RTT cryptographic handshakes (§5.6)",
			Protocol:    browser.Protocol{ForceTLS13: true},
		},
		{
			Name:        "quic",
			Description: "QUIC: transport+crypto in one round trip (§5.6)",
			Protocol:    browser.Protocol{QUIC: true},
		},
		{
			Name:        "h2",
			Description: "HTTP/2: one multiplexed connection per origin",
			Protocol:    browser.Protocol{H2Multiplex: true},
		},
		{
			Name:        "push",
			Description: "Server push / dependency-aware delivery (Polaris/Vroom family, §5.4)",
			Protocol:    browser.Protocol{ServerPush: true},
		},
		{
			Name:        "preconnect",
			Description: "Perfect preconnect hints for every origin (§5.5)",
			Protocol:    browser.Protocol{PreconnectAll: true},
		},
		{
			Name:        "perfect-cdn",
			Description: "Every CDN request is an edge hit (§5.1, the Vesuna-style caching bound)",
			WarmthRate:  1e9,
		},
		{
			Name:          "no-cdn",
			Description:   "CDN edges always miss (cold caches everywhere)",
			WarmthRate:    1e-9,
			WarmthCeiling: 1e-9,
		},
	}
}

// Config parameterizes an evaluation.
type Config struct {
	Seed int64
	// Fetches per page per configuration (median taken). Default 3.
	Fetches int
}

func (c Config) withDefaults() Config {
	if c.Fetches <= 0 {
		c.Fetches = 3
	}
	return c
}

// baselineWarmthRate and baselineWarmthCeiling are the baseline CDN
// warmth curve, core.StudyConfig's defaults.
const baselineWarmthRate, baselineWarmthCeiling = 2.2, 0.97

// PageDelta is one page's baseline-vs-scenario timing pairs.
type PageDelta struct {
	URL       string
	IsLanding bool
	// First paint (the paper's PLT) and onLoad (all objects done): some
	// optimizations act on the critical rendering path, others — server
	// push especially — on the deep dependency tail that only onLoad
	// sees.
	Baseline     time.Duration
	Scenario     time.Duration
	BaselineLoad time.Duration
	ScenarioLoad time.Duration
}

// Improvement returns the relative PLT (first paint) reduction
// (positive = faster).
func (p PageDelta) Improvement() float64 {
	if p.Baseline <= 0 {
		return 0
	}
	return 1 - float64(p.Scenario)/float64(p.Baseline)
}

// LoadImprovement returns the relative onLoad reduction.
func (p PageDelta) LoadImprovement() float64 {
	if p.BaselineLoad <= 0 {
		return 0
	}
	return 1 - float64(p.ScenarioLoad)/float64(p.BaselineLoad)
}

// Result summarizes one scenario over a page set.
type Result struct {
	Scenario Scenario
	Pages    []PageDelta
}

// MedianImprovement returns the median relative PLT reduction for one
// page type.
func (r *Result) MedianImprovement(landing bool) float64 {
	var xs []float64
	for _, p := range r.Pages {
		if p.IsLanding == landing {
			xs = append(xs, p.Improvement())
		}
	}
	return stats.Median(xs)
}

// MedianLoadImprovement returns the median relative onLoad reduction for
// one page type.
func (r *Result) MedianLoadImprovement(landing bool) float64 {
	var xs []float64
	for _, p := range r.Pages {
		if p.IsLanding == landing {
			xs = append(xs, p.LoadImprovement())
		}
	}
	return stats.Median(xs)
}

// LoadAsymmetry returns the landing-minus-internal onLoad gain.
func (r *Result) LoadAsymmetry() float64 {
	return r.MedianLoadImprovement(true) - r.MedianLoadImprovement(false)
}

// Asymmetry returns landing improvement minus internal improvement (the
// evaluation bias a landing-page-only study would never see).
func (r *Result) Asymmetry() float64 {
	return r.MedianImprovement(true) - r.MedianImprovement(false)
}

// Evaluator re-runs page loads under scenarios.
type Evaluator struct {
	cfg Config
	web *webgen.Web
}

// New creates an evaluator over a web snapshot.
func New(web *webgen.Web, cfg Config) *Evaluator {
	return &Evaluator{cfg: cfg.withDefaults(), web: web}
}

// browserFor builds a browser for a scenario ("" warmth = baseline).
func (e *Evaluator) browserFor(p browser.Protocol, rate, ceiling float64) (*browser.Browser, error) {
	if rate == 0 {
		rate = baselineWarmthRate
	}
	if ceiling == 0 {
		ceiling = baselineWarmthCeiling
	}
	resolver := dnssim.NewResolver(dnssim.ResolverConfig{
		Name: "isp", Seed: e.cfg.Seed, WarmQueryRate: 0.8,
	}, e.web.Authority(), nil)
	warm := cdn.PopularityWarmth(rate, ceiling)
	seed := e.cfg.Seed
	return browser.New(browser.Config{
		Seed:     seed,
		Resolver: resolver,
		Protocol: p,
		CDNFactory: func() *cdn.Network {
			return cdn.NewNetwork(1<<14, warm, seed)
		},
	})
}

// medianTimings loads the model cfg.Fetches times and returns the median
// first paint and onLoad.
func medianTimings(b *browser.Browser, m *webgen.PageModel, fetches int) (fp, onload time.Duration, err error) {
	fps := make([]time.Duration, 0, fetches)
	loads := make([]time.Duration, 0, fetches)
	for f := 0; f < fetches; f++ {
		log, err := b.Load(m, f)
		if err != nil {
			return 0, 0, err
		}
		fps = append(fps, log.Page.Timings.FirstPaint)
		loads = append(loads, log.Page.Timings.OnLoad)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	sort.Slice(loads, func(i, j int) bool { return loads[i] < loads[j] })
	return fps[len(fps)/2], loads[len(loads)/2], nil
}

// Evaluate runs one scenario over the list's pages (landing + internal)
// against the baseline configuration.
func (e *Evaluator) Evaluate(list *hispar.List, sc Scenario) (*Result, error) {
	res, err := e.evaluate(list, []Scenario{sc})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// EvaluateAll runs every scenario.
func (e *Evaluator) EvaluateAll(list *hispar.List) ([]*Result, error) {
	return e.evaluate(list, Scenarios())
}

// evaluate runs each scenario over the list's pages against one shared
// baseline. Every browser, the baseline's included, loads the pages in
// list order, so a scenario's result does not depend on which others
// run beside it.
func (e *Evaluator) evaluate(list *hispar.List, scs []Scenario) ([]*Result, error) {
	base, err := e.browserFor(browser.Protocol{}, 0, 0)
	if err != nil {
		return nil, err
	}
	variants := make([]*browser.Browser, len(scs))
	out := make([]*Result, len(scs))
	for i, sc := range scs {
		if variants[i], err = e.browserFor(sc.Protocol, sc.WarmthRate, sc.WarmthCeiling); err != nil {
			return nil, err
		}
		out[i] = &Result{Scenario: sc}
	}
	for _, set := range list.Sets {
		urls := append([]string{set.Landing}, set.Internal...)
		for j, u := range urls {
			page, ok := e.web.PageByURL(u)
			if !ok {
				return nil, fmt.Errorf("whatif: %s not in web snapshot", u)
			}
			m := page.Build()
			fp0, ol0, err := medianTimings(base, m, e.cfg.Fetches)
			if err != nil {
				return nil, err
			}
			for i, variant := range variants {
				fp1, ol1, err := medianTimings(variant, m, e.cfg.Fetches)
				if err != nil {
					return nil, err
				}
				out[i].Pages = append(out[i].Pages, PageDelta{
					URL:          u,
					IsLanding:    j == 0,
					Baseline:     fp0,
					Scenario:     fp1,
					BaselineLoad: ol0,
					ScenarioLoad: ol1,
				})
			}
		}
	}
	return out, nil
}
