package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hispar"
	"repro/internal/search"
	"repro/internal/toplist"
	"repro/internal/trace"
	"repro/internal/webgen"
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

// Context lazily builds and caches the shared corpus: the top-list
// universe, the week-0 web snapshot, the Hispar list, and the full H1K
// study. Experiments pull what they need; expensive pieces are built
// once.
type Context struct {
	Cfg Config

	mu         sync.Mutex
	universe   *toplist.Universe
	bootstrap  []toplist.Entry
	web        *webgen.Web
	engine     *search.Engine
	list       *hispar.List
	buildStats hispar.BuildStats
	study      *core.StudyResult
	studyErr   error
	warm       *core.WarmStudyResult
	warmErr    error
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

// Universe returns the bootstrap top-list universe (small: just enough
// to bootstrap the lists; the stability experiment builds its own).
func (c *Context) Universe() *toplist.Universe {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.universeLocked()
}

func (c *Context) universeLocked() *toplist.Universe {
	if c.universe == nil {
		size := c.Cfg.Sites * 3
		if size < 4000 {
			size = 4000
		}
		c.universe = toplist.NewUniverse(toplist.Config{Seed: c.Cfg.Seed, Size: size})
	}
	return c.universe
}

// Web returns the week-0 web snapshot: the bootstrap top of the universe
// plus the five exhaustive-crawl sites.
func (c *Context) Web() *webgen.Web {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.webLocked()
}

func (c *Context) webLocked() *webgen.Web {
	if c.web != nil {
		return c.web
	}
	u := c.universeLocked()
	// Walk ~40% past the target so FewEnglish drops do not exhaust the
	// bootstrap.
	c.bootstrap = u.Top(c.Cfg.Sites * 7 / 5)
	seeds := make([]webgen.SiteSeed, 0, len(c.bootstrap)+5)
	for _, e := range c.bootstrap {
		seeds = append(seeds, webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank})
	}
	crawlPool := c.Cfg.CrawlPages * 6 / 5
	seeds = append(seeds, crawlSiteSeeds(crawlPool)...)
	c.web = webgen.Generate(webgen.Config{Seed: c.Cfg.Seed, Week: 0, Sites: seeds})
	return c.web
}

// SearchEngine returns the metered search engine over the week-0 web.
func (c *Context) SearchEngine() *search.Engine {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.searchLocked()
}

func (c *Context) searchLocked() *search.Engine {
	if c.engine == nil {
		c.engine = search.New(c.webLocked(), search.Config{EnglishOnly: true})
	}
	return c.engine
}

// listLocked builds the H1K-style list once; callers hold c.mu.
func (c *Context) listLocked() (*hispar.List, hispar.BuildStats, error) {
	if c.list != nil {
		return c.list, c.buildStats, nil
	}
	c.webLocked() // ensures bootstrap is populated
	list, stats, err := hispar.Build(c.searchLocked(), c.bootstrap, hispar.BuildConfig{
		Sites:       c.Cfg.Sites,
		URLsPerSite: c.Cfg.PerSite,
		MinResults:  5,
		Name:        fmt.Sprintf("H%d", c.Cfg.Sites),
	})
	if err != nil {
		return nil, stats, err
	}
	c.list, c.buildStats = list, stats
	return c.list, c.buildStats, nil
}

// List returns the H1K-style Hispar list (built once) and its build
// stats.
func (c *Context) List() (*hispar.List, hispar.BuildStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.listLocked()
}

// newStudyLocked builds a study over the week-0 web with the context's
// seed, landing fetches and workers; callers hold c.mu.
func (c *Context) newStudyLocked() (*core.Study, error) {
	return core.NewStudy(c.webLocked(), core.StudyConfig{
		Seed:           c.Cfg.Seed,
		LandingFetches: c.Cfg.LandingFetches,
		Workers:        c.Cfg.Workers,
	})
}

// Study returns the full H1K study result, running it on first use. It
// is the one cold study of a context: a streaming run with a collecting
// sink, traced into Cfg.Trace.
func (c *Context) Study() (*core.StudyResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.study != nil || c.studyErr != nil {
		return c.study, c.studyErr
	}
	list, _, err := c.listLocked()
	if err != nil {
		c.studyErr = err
		return nil, err
	}
	st, err := c.newStudyLocked()
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
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.warm != nil || c.warmErr != nil {
		return c.warm, c.warmErr
	}
	list, _, err := c.listLocked()
	if err != nil {
		c.warmErr = err
		return nil, err
	}
	st, err := c.newStudyLocked()
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
