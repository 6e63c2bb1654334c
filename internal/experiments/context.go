package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hispar"
	"repro/internal/trace"
	"repro/internal/webgen"
	"repro/internal/world"
)

// Config scales the experiment harness. The defaults reproduce the
// paper's H1K setup (1000 sites × 20 URLs, landing pages fetched 10
// times); tests and benchmarks use smaller values.
type Config struct {
	Seed int64
	// Sites and PerSite shape the H1K-style list.
	Sites   int // default 1000
	PerSite int // default 20 (1 landing + 19 internal)
	// LandingFetches is the per-landing-page fetch count (default 10).
	LandingFetches int
	// Workers bounds study parallelism (default GOMAXPROCS).
	Workers int
	// CrawlPages bounds the exhaustive crawl per site (default 5000) and
	// CrawlSample the measured sample (default 500).
	CrawlPages  int
	CrawlSample int
	// StabilityUniverse and StabilityWeeks configure the churn
	// experiment (defaults 130_000 domains, 10 weeks).
	StabilityUniverse int
	StabilityWeeks    int
	// H2KSites/H2KPerSite configure the churn/cost list (2000 × 50).
	H2KSites    int
	H2KPerSite  int
	DNSProbeTop int // §5.3 probe set size (default 5000)
	// RevisitDelay is the cold→warm gap of the repeat-view study
	// (default 30m).
	RevisitDelay time.Duration
	// Trace collects deterministic spans from the cold H1K study every
	// experiment reads (nil = tracing off).
	Trace *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.Sites <= 0 {
		c.Sites = 1000
	}
	if c.PerSite <= 0 {
		c.PerSite = 20
	}
	if c.LandingFetches <= 0 {
		c.LandingFetches = 10
	}
	if c.CrawlPages <= 0 {
		c.CrawlPages = 5000
	}
	if c.CrawlSample <= 0 {
		c.CrawlSample = 500
	}
	if c.StabilityUniverse <= 0 {
		c.StabilityUniverse = 130_000
	}
	if c.StabilityWeeks <= 0 {
		c.StabilityWeeks = 10
	}
	if c.H2KSites <= 0 {
		c.H2KSites = 2000
	}
	if c.H2KPerSite <= 0 {
		c.H2KPerSite = 50
	}
	if c.DNSProbeTop <= 0 {
		c.DNSProbeTop = 5000
	}
	if c.RevisitDelay <= 0 {
		c.RevisitDelay = 30 * time.Minute
	}
	return c
}

// Context lazily builds and caches the shared corpus: the week-0 world
// (top-list universe, web, search engine and the H1K-style list) and
// the full H1K study. Experiments pull what they need; expensive pieces
// are built once.
type Context struct {
	Cfg Config

	worldOnce sync.Once
	world     *world.World
	listErr   error

	mu       sync.Mutex
	study    *core.StudyResult
	studyErr error
	warm     *core.WarmStudyResult
	warmErr  error
}

// NewContext creates a context with the given scale.
func NewContext(cfg Config) *Context {
	return &Context{Cfg: cfg.withDefaults()}
}

// crawlSiteSeeds are the five §4 exhaustive-crawl sites: analogues of
// Wikipedia (rank 13), Twitter (36), the New York Times (67),
// HowStuffWorks (2014), and an unranked academic site.
func crawlSiteSeeds(poolSize int) []webgen.SiteSeed {
	return []webgen.SiteSeed{
		{Domain: "encyclomedia-wp.org", Rank: 13, PoolSize: poolSize, Category: webgen.CatReference},
		{Domain: "chirpfeed-tw.com", Rank: 36, PoolSize: poolSize, Category: webgen.CatSocial},
		{Domain: "metrotimes-ny.com", Rank: 67, PoolSize: poolSize, Category: webgen.CatNews},
		{Domain: "howthingswork-hs.com", Rank: 2014, PoolSize: poolSize, Category: webgen.CatReference},
		{Domain: "campuslab-ac.edu", Rank: 0, PoolSize: poolSize, Category: webgen.CatTech},
	}
}

// CrawlDomains returns the five crawl-site domains in paper order
// (WP, TW, NY, HS, AC).
func CrawlDomains() []string {
	seeds := crawlSiteSeeds(0)
	out := make([]string, len(seeds))
	for i, s := range seeds {
		out[i] = s.Domain
	}
	return out
}

// World returns the week-0 world, built once: the top-list universe
// (the stability experiment builds its own), the web with the five
// crawl sites, the search engine and the H1K-style list. A list that
// could not be filled leaves the rest of the world usable, and List
// reports why.
func (c *Context) World() *world.World {
	c.worldOnce.Do(func() {
		// Cfg's defaults keep every field in range, so a world is
		// always built.
		c.world, c.listErr = world.Build(world.Config{
			Seed:        c.Cfg.Seed,
			Sites:       c.Cfg.Sites,
			URLsPerSite: c.Cfg.PerSite,
			MinResults:  5,
			Name:        fmt.Sprintf("H%d", c.Cfg.Sites),
			Extra:       crawlSiteSeeds(c.Cfg.CrawlPages * 6 / 5),
		})
	})
	return c.world
}

// List returns the H1K-style Hispar list, built once.
func (c *Context) List() (*hispar.List, error) {
	w := c.World()
	if c.listErr != nil {
		return nil, c.listErr
	}
	return w.List, nil
}

// StudyConfig is the configuration of every study the context's
// experiments run: the context's seed, landing fetches and workers.
func (c *Context) StudyConfig() core.StudyConfig {
	return core.StudyConfig{
		Seed:           c.Cfg.Seed,
		LandingFetches: c.Cfg.LandingFetches,
		Workers:        c.Cfg.Workers,
	}
}

// Study returns the full H1K study result, running it on first use. It
// is the one cold study of a context: a streaming run with a collecting
// sink, traced into Cfg.Trace.
func (c *Context) Study() (*core.StudyResult, error) {
	list, err := c.List()
	web := c.World().Web
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.study != nil || c.studyErr != nil {
		return c.study, c.studyErr
	}
	if err != nil {
		c.studyErr = err
		return nil, err
	}
	st, err := core.NewStudy(web, c.StudyConfig())
	if err != nil {
		c.studyErr = err
		return nil, err
	}
	col := &core.Collector[core.SiteResult]{}
	sres, err := st.RunStream(list, core.StreamConfig{Sinks: []core.SiteSink{col}, Trace: c.Cfg.Trace}) //detlint:allow lockheld -- single-flight by design: concurrent callers must wait for the one study run
	c.study = &core.StudyResult{List: list, Sites: col.Sites, Outcomes: sres.Outcomes, Stats: sres.Stats}
	c.studyErr = err
	return c.study, c.studyErr
}

// WarmStudy returns the cold→warm repeat-view study, running it on
// first use.
func (c *Context) WarmStudy() (*core.WarmStudyResult, error) {
	list, err := c.List()
	web := c.World().Web
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.warm != nil || c.warmErr != nil {
		return c.warm, c.warmErr
	}
	if err != nil {
		c.warmErr = err
		return nil, err
	}
	st, err := core.NewStudy(web, c.StudyConfig())
	if err != nil {
		c.warmErr = err
		return nil, err
	}
	c.warm, c.warmErr = st.RunWarm(list, core.WarmConfig{RevisitDelay: c.Cfg.RevisitDelay}) //detlint:allow lockheld -- single-flight by design: concurrent callers must wait for the one warm run
	return c.warm, c.warmErr
}

// TopSites returns the study results for the k highest-ranked sites
// (Ht30/Ht100); BottomSites the k lowest (Hb100).
func TopSites(res *core.StudyResult, k int) []core.SiteResult {
	if k > len(res.Sites) {
		k = len(res.Sites)
	}
	return res.Sites[:k]
}

// BottomSites returns the study results for the k lowest-ranked sites.
func BottomSites(res *core.StudyResult, k int) []core.SiteResult {
	if k > len(res.Sites) {
		k = len(res.Sites)
	}
	return res.Sites[len(res.Sites)-k:]
}
