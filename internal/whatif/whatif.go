// Package whatif evaluates the paper's implications (§5.1–§5.6) as
// counterfactuals: re-run the same study under a proposed
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
	"time"

	"repro/internal/browser"
	"repro/internal/core"
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
	// the baseline study's values.
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
	return r.median(landing, PageDelta.Improvement)
}

// MedianLoadImprovement returns the median relative onLoad reduction for
// one page type.
func (r *Result) MedianLoadImprovement(landing bool) float64 {
	return r.median(landing, PageDelta.LoadImprovement)
}

// median returns the median of f over one page type's deltas.
func (r *Result) median(landing bool, f func(PageDelta) float64) float64 {
	var xs []float64
	for _, p := range r.Pages {
		if p.IsLanding == landing {
			xs = append(xs, f(p))
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

// Evaluator re-runs a study under scenarios.
type Evaluator struct {
	web  *webgen.Web
	base core.StudyConfig
}

// New creates an evaluator over a web snapshot. base is the baseline
// study configuration; each scenario runs it with its Protocol and
// warmth overrides.
func New(web *webgen.Web, base core.StudyConfig) *Evaluator {
	return &Evaluator{web: web, base: base}
}

// run measures the list through the study engine under sc; the zero
// Scenario is the baseline.
func (e *Evaluator) run(list *hispar.List, sc Scenario) (*core.StudyResult, error) {
	cfg := e.base
	cfg.Protocol = sc.Protocol
	if sc.WarmthRate != 0 {
		cfg.CDNWarmthRate = sc.WarmthRate
	}
	if sc.WarmthCeiling != 0 {
		cfg.CDNWarmthCeiling = sc.WarmthCeiling
	}
	st, err := core.NewStudy(e.web, cfg)
	if err != nil {
		return nil, err
	}
	return st.Run(list)
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

// evaluate runs the baseline study once and each scenario's study
// beside it. Every study measures each site in its own slot of the
// window, so a scenario's result does not depend on which others run
// beside it.
func (e *Evaluator) evaluate(list *hispar.List, scs []Scenario) ([]*Result, error) {
	base, err := e.run(list, Scenario{})
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(scs))
	for i, sc := range scs {
		res, err := e.run(list, sc)
		if err != nil {
			return nil, fmt.Errorf("whatif: %s: %w", sc.Name, err)
		}
		pages, err := pairPages(base.Sites, res.Sites)
		if err != nil {
			return nil, fmt.Errorf("whatif: %s: %w", sc.Name, err)
		}
		out[i] = &Result{Scenario: sc, Pages: pages}
	}
	return out, nil
}

// pairPages pairs each baseline page with the scenario's measurement of
// the same page, by site and position. A page set that differs — a site
// or page measured on one side only — is an error, never a misaligned
// pair.
func pairPages(base, scen []core.SiteResult) ([]PageDelta, error) {
	b, s := measured(base), measured(scen)
	if len(b) != len(s) {
		return nil, fmt.Errorf("%d pages measured, baseline %d", len(s), len(b))
	}
	pages := make([]PageDelta, len(b))
	for i := range b {
		if b[i].URL != s[i].URL {
			return nil, fmt.Errorf("page %s measured where the baseline has %s", s[i].URL, b[i].URL)
		}
		pages[i] = PageDelta{URL: b[i].URL, IsLanding: b[i].IsLanding,
			Baseline: b[i].PLT, Scenario: s[i].PLT, BaselineLoad: b[i].OnLoad, ScenarioLoad: s[i].OnLoad}
	}
	return pages, nil
}

// measured lists the sites' measured pages in order, each landing page
// before its internal pages.
func measured(sites []core.SiteResult) []*core.PageMeasurement {
	var out []*core.PageMeasurement
	for i := range sites {
		out = append(out, &sites[i].Landing)
		for j := range sites[i].Internal {
			out = append(out, &sites[i].Internal[j])
		}
	}
	return out
}
