package repro

// Benchmarks: one per paper table/figure, each driving the experiment
// runner that regenerates it, plus micro-benchmarks of the expensive
// pipeline stages (page generation, page load, list build).
//
// The figure benchmarks share one reduced-scale corpus (120 sites,
// 10 URLs each, 3 fetches per landing page); the first benchmark that
// needs the study pays for it outside its timing loop. Run
// cmd/papereval for full-scale (1000-site) numbers.

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/cdn"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/experiments"
	"repro/internal/hispar"
	"repro/internal/hisparserve"
	"repro/internal/search"
	"repro/internal/stats"
	"repro/internal/toplist"
	"repro/internal/webgen"
)

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
)

func sharedCtx(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		benchCtx = experiments.NewContext(experiments.Config{
			Seed:              42,
			Sites:             120,
			PerSite:           10,
			LandingFetches:    3,
			CrawlPages:        600,
			CrawlSample:       120,
			StabilityUniverse: 30000,
			StabilityWeeks:    3,
			H2KSites:          150,
			H2KPerSite:        20,
			DNSProbeTop:       2000,
		})
	})
	return benchCtx
}

func benchExperiment(b *testing.B, id string) {
	if testing.Short() {
		// The shared corpus takes minutes to warm under -race; keep
		// `go test -race -short -bench=.` usable as a quick gate.
		b.Skip("skipping experiment benchmark in short mode")
	}
	ctx := sharedCtx(b)
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	// Warm the shared corpus (study, lists) outside the timing loop.
	if _, err := exp.Run(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per table/figure (§2–§7) ---

func BenchmarkTable1(b *testing.B)     { benchExperiment(b, "table1") }
func BenchmarkFig2a(b *testing.B)      { benchExperiment(b, "fig2a") }
func BenchmarkFig2b(b *testing.B)      { benchExperiment(b, "fig2b") }
func BenchmarkFig2c(b *testing.B)      { benchExperiment(b, "fig2c") }
func BenchmarkFig3a(b *testing.B)      { benchExperiment(b, "fig3a") }
func BenchmarkFig3bc(b *testing.B)     { benchExperiment(b, "fig3bc") }
func BenchmarkFig4a(b *testing.B)      { benchExperiment(b, "fig4a") }
func BenchmarkWarmCache(b *testing.B)  { benchExperiment(b, "warm") }
func BenchmarkFig4b(b *testing.B)      { benchExperiment(b, "fig4b") }
func BenchmarkFig4c(b *testing.B)      { benchExperiment(b, "fig4c") }
func BenchmarkFig5(b *testing.B)       { benchExperiment(b, "fig5") }
func BenchmarkDNSHitRate(b *testing.B) { benchExperiment(b, "dns") }
func BenchmarkFig6a(b *testing.B)      { benchExperiment(b, "fig6a") }
func BenchmarkFig6b(b *testing.B)      { benchExperiment(b, "fig6b") }
func BenchmarkFig6c(b *testing.B)      { benchExperiment(b, "fig6c") }
func BenchmarkFig7(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8a(b *testing.B)      { benchExperiment(b, "fig8a") }
func BenchmarkFig8b(b *testing.B)      { benchExperiment(b, "fig8b") }
func BenchmarkFig8c(b *testing.B)      { benchExperiment(b, "fig8c") }
func BenchmarkFig9(b *testing.B)       { benchExperiment(b, "fig9") }
func BenchmarkFig10ab(b *testing.B)    { benchExperiment(b, "fig10ab") }
func BenchmarkFig10c(b *testing.B)     { benchExperiment(b, "fig10c") }
func BenchmarkStability(b *testing.B)  { benchExperiment(b, "stability") }
func BenchmarkListCost(b *testing.B)   { benchExperiment(b, "cost") }

// BenchmarkAblation drives the what-if evaluation of the paper's §5
// implications (every optimization scenario over both page types).
func BenchmarkAblation(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkSelection drives the §7 page-selection strategy comparison.
func BenchmarkSelection(b *testing.B) { benchExperiment(b, "selection") }

// BenchmarkLearning drives the §7 learned-model transfer-gap experiment.
func BenchmarkLearning(b *testing.B) { benchExperiment(b, "learning") }

// --- Pipeline micro-benchmarks ---

func benchWeb(b *testing.B, n int) *webgen.Web {
	b.Helper()
	u := toplist.NewUniverse(toplist.Config{Seed: 7, Size: 2000})
	entries := u.Top(n)
	seeds := make([]webgen.SiteSeed, len(entries))
	for i, e := range entries {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	return webgen.Generate(webgen.Config{Seed: 7, Sites: seeds})
}

// BenchmarkPageBuild measures synthetic page-model generation. One op
// is a fixed batch: internal pages 1 to 20 of each of the 16 sites,
// every one built once. A single build takes well under a millisecond,
// too short for the gate's 1x run to time apart from timer noise.
func BenchmarkPageBuild(b *testing.B) {
	web := benchWeb(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, site := range web.Sites {
			for k := 1; k <= 20; k++ {
				_ = site.PageAt(k).Build()
			}
		}
	}
}

// BenchmarkPageLoad measures full simulated cold-cache page loads (DNS,
// handshakes, dependency-ordered fetches, HAR assembly). One op is a
// fixed batch: each of the 16 sites' landing models loaded once, since a
// single load is too short for the gate's 1x run to time apart from
// timer noise. Each log is released once read, as the study does, so
// its storage is reused; one untimed load of every model first puts
// released storage in place, so even a 1x run times the recycled path.
// BenchmarkWarmLoad keeps the path of logs that are never released.
func BenchmarkPageLoad(b *testing.B) {
	web := benchWeb(b, 16)
	resolver := dnssim.NewResolver(dnssim.ResolverConfig{
		Name: "isp", Seed: 7, WarmQueryRate: 0.8,
	}, web.Authority(), nil)
	// One network reset for every load, as the study's worker does.
	edges := cdn.NewNetwork(1<<14, cdn.PopularityWarmth(2.2, 0.97), 7)
	br, err := browser.New(browser.Config{
		Seed:     7,
		Resolver: resolver,
		CDNFactory: func() *cdn.Network {
			edges.Reset(7)
			return edges
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	models := make([]*webgen.PageModel, len(web.Sites))
	for i, s := range web.Sites {
		models[i] = s.Landing().Build()
		log, err := br.LoadRevisit(models[i], -1, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		br.Release(log)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, m := range models {
			log, err := br.LoadRevisit(m, i*len(models)+j, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			br.Release(log)
		}
	}
}

// BenchmarkWarmLoad measures warm (repeat-view) page loads against
// caches primed by a cold load: fresh objects answered from memory,
// stale ones revalidated with header-only 304 exchanges. One op is a
// fixed batch, each of the 16 landing models loaded once against its
// own cache, as in BenchmarkPageLoad.
func BenchmarkWarmLoad(b *testing.B) {
	web := benchWeb(b, 16)
	resolver := dnssim.NewResolver(dnssim.ResolverConfig{
		Name: "isp", Seed: 7, WarmQueryRate: 0.8,
	}, web.Authority(), nil)
	// One network reset for every load, as the study's worker does.
	edges := cdn.NewNetwork(1<<14, cdn.PopularityWarmth(2.2, 0.97), 7)
	br, err := browser.New(browser.Config{
		Seed:     7,
		Resolver: resolver,
		CDNFactory: func() *cdn.Network {
			edges.Reset(7)
			return edges
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	models := make([]*webgen.PageModel, len(web.Sites))
	caches := make([]*browser.Cache, len(web.Sites))
	for i, s := range web.Sites {
		models[i] = s.Landing().Build()
		caches[i] = browser.NewCache()
		br.SetCache(caches[i])
		if _, err := br.LoadRevisit(models[i], i, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, m := range models {
			br.SetCache(caches[j])
			if _, err := br.LoadRevisit(m, j, 0, 30*time.Minute); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHisparBuild measures list construction over the search engine.
func BenchmarkHisparBuild(b *testing.B) {
	u := toplist.NewUniverse(toplist.Config{Seed: 7, Size: 2000})
	entries := u.Top(80)
	seeds := make([]webgen.SiteSeed, len(entries))
	for i, e := range entries {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	web := webgen.Generate(webgen.Config{Seed: 7, Sites: seeds})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := search.New(web, search.Config{EnglishOnly: true})
		if _, _, err := hispar.Build(eng, entries, hispar.BuildConfig{
			Sites: 50, URLsPerSite: 20, MinResults: 5,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Streaming engine and sketch benchmarks ---

// BenchmarkSketchInsert measures quantile-sketch insertion (the
// per-sample cost of the streaming fold). One op is a fixed batch: 4096
// samples inserted 16 times into a sketch that already holds them, so
// its bins exist; a single insert is too short for the gate's 1x run to
// time apart from timer noise.
func BenchmarkSketchInsert(b *testing.B) {
	s := stats.NewDefaultSketch()
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 1<<12)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 1e6
		s.Insert(vals[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pass := 0; pass < 16; pass++ {
			for _, v := range vals {
				s.Insert(v)
			}
		}
	}
}

// BenchmarkSketchMerge measures folding 16 shard sketches (4096 samples
// each) into a fresh accumulator — the end-of-run merge path. One op is
// a fixed batch of 16 such folds, since one fold (~0.2 ms) is too short
// for the gate's 1x run to time apart from timer noise.
func BenchmarkSketchMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	shards := make([]*stats.Sketch, 16)
	for i := range shards {
		shards[i] = stats.NewDefaultSketch()
		for j := 0; j < 4096; j++ {
			shards[i].Insert(rng.ExpFloat64() * 1e5)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for fold := 0; fold < 16; fold++ {
			acc := stats.NewDefaultSketch()
			for _, s := range shards {
				if err := acc.Merge(s); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// benchStudyCorpus builds a web snapshot and Hispar-style list at the
// given site count, outside any timing loop. The reduced per-site scale
// (6 URLs — the minimum that satisfies MinResults — and 2 landing
// fetches) keeps large site counts tractable while preserving the
// result-set shape the streaming engine must bound.
func benchStudyCorpus(b *testing.B, sites int) (*webgen.Web, *hispar.List) {
	b.Helper()
	size := sites * 3
	if size < 2000 {
		size = 2000
	}
	u := toplist.NewUniverse(toplist.Config{Seed: 7, Size: size})
	entries := u.Top(sites * 7 / 5)
	seeds := make([]webgen.SiteSeed, len(entries))
	for i, e := range entries {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	web := webgen.Generate(webgen.Config{Seed: 7, Sites: seeds})
	eng := search.New(web, search.Config{EnglishOnly: true})
	list, _, err := hispar.Build(eng, entries, hispar.BuildConfig{
		Sites: sites, URLsPerSite: 6, MinResults: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	return web, list
}

// retainedDelta returns the live-heap growth attributable to res: heap
// reachable after the run minus heap reachable before, with res held
// alive across the second GC. Cumulative B/op grows linearly with sites
// on any path; this is what the in-memory result keeps, every
// SiteResult. The streamed result (outcomes and a stats snapshot) is
// below the reading's noise floor, so the streamed benchmarks do not
// report it.
func retainedDelta(before *runtime.MemStats, res any) float64 {
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(res)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

func heapBefore() runtime.MemStats {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// warmCorpus runs one throwaway streamed pass so lazily-built corpus
// state (page pools, caches reachable from web) exists before the
// timed runs, and before the in-memory retained-B/op measurement, which
// would otherwise misattribute that linear-in-sites corpus growth to the
// result being measured.
func warmCorpus(b *testing.B, web *webgen.Web, list *hispar.List) {
	b.Helper()
	st, err := core.NewStudy(web, core.StudyConfig{Seed: 7, LandingFetches: 2})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.RunStream(list, core.StreamConfig{}); err != nil {
		b.Fatal(err)
	}
}

func benchStreamStudy(b *testing.B, sites int) {
	if testing.Short() && sites > 200 {
		b.Skip("large-corpus streaming benchmark skipped in short mode")
	}
	web, list := benchStudyCorpus(b, sites)
	warmCorpus(b, web, list)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := core.NewStudy(web, core.StudyConfig{Seed: 7, LandingFetches: 2})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.RunStream(list, core.StreamConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchInMemoryStudy(b *testing.B, sites int) {
	if testing.Short() && sites > 200 {
		b.Skip("large-corpus in-memory benchmark skipped in short mode")
	}
	web, list := benchStudyCorpus(b, sites)
	warmCorpus(b, web, list)
	b.ReportAllocs()
	b.ResetTimer()
	retained := 0.0
	for i := 0; i < b.N; i++ {
		st, err := core.NewStudy(web, core.StudyConfig{Seed: 7, LandingFetches: 2})
		if err != nil {
			b.Fatal(err)
		}
		before := heapBefore()
		res, err := st.Run(list)
		if err != nil {
			b.Fatal(err)
		}
		retained += retainedDelta(&before, res)
	}
	b.ReportMetric(retained/float64(b.N), "retained-B/op")
}

// BenchmarkStreamStudy120 runs in bench-smoke and anchors the CI gate
// on the streaming hot path; the H1K/H10K pairs document how cost and
// the in-memory retained footprint scale (see EXPERIMENTS.md) and run
// only in full bench mode.
func BenchmarkStreamStudy120(b *testing.B)    { benchStreamStudy(b, 120) }
func BenchmarkStreamStudyH1K(b *testing.B)    { benchStreamStudy(b, 1000) }
func BenchmarkStreamStudyH10K(b *testing.B)   { benchStreamStudy(b, 10000) }
func BenchmarkInMemoryStudy120(b *testing.B)  { benchInMemoryStudy(b, 120) }
func BenchmarkInMemoryStudyH1K(b *testing.B)  { benchInMemoryStudy(b, 1000) }
func BenchmarkInMemoryStudyH10K(b *testing.B) { benchInMemoryStudy(b, 10000) }

// BenchmarkToplistWeek measures one week of top-list drift plus a
// 5K-snapshot. The collection before the timer keeps the universe's
// construction garbage out of the op: a GC cycle it would start inside a
// 1x op adds 2–3 runtime allocations to allocs/op (3, 5 or 6 from run
// to run without it; 3 in 20 of 20 runs with it).
func BenchmarkToplistWeek(b *testing.B) {
	u := toplist.NewUniverse(toplist.Config{Seed: 7, Size: 50000})
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Step(7)
		_ = u.Top(5000)
	}
}

// --- Serving benchmark ---

// discardResponse is the benchmark's http.ResponseWriter: it keeps the
// headers and status and drops the body, so an op times the server.
type discardResponse struct {
	header http.Header
	status int
	body   []byte
	keep   bool
}

func (d *discardResponse) Header() http.Header { return d.header }

func (d *discardResponse) WriteHeader(code int) {
	if d.status == 0 {
		d.status = code
	}
}

func (d *discardResponse) Write(p []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	if d.keep {
		d.body = append(d.body, p...)
	}
	return len(p), nil
}

func (d *discardResponse) reset() {
	clear(d.header)
	d.status = 0
	d.body = d.body[:0]
}

// revalidationPass sets up hisparserve's dominant request, a 304
// revalidation of a /v1/site payload, through the full Handler()
// (record, router and payload cache). It returns one pass: every site
// of a 1,000-site week revalidated once, every other request
// advertising gzip, each carrying the entity-tag an untimed first fetch
// returned. pass(w, k, n) serves the k-th of n interleaved parts of the
// pass (requests k, k+n, k+2n, …), so pass(w, 0, 1) is the whole pass.
// The requests are built once and only read by a pass, so parts may run
// concurrently, each with its own response writer. The server is
// closed when the benchmark ends.
func revalidationPass(b *testing.B) func(w *discardResponse, k, n int) {
	b.Helper()
	srv := hisparserve.New(hisparserve.Config{
		Seed: 42, Weeks: 1, Sites: 1000, URLsPerSite: 20, Universe: 4000,
	})
	b.Cleanup(func() { srv.Close() })
	h := srv.Handler()
	w := &discardResponse{header: make(http.Header), keep: true}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/list/0?wait=1", nil))
	list, err := hispar.ReadCSV(bytes.NewReader(w.body))
	if w.status != http.StatusOK || err != nil || len(list.Sets) != 1000 {
		b.Fatalf("list: status %d, %v", w.status, err)
	}
	w.keep = false
	reqs := make([]*http.Request, len(list.Sets))
	for i, set := range list.Sets {
		r := httptest.NewRequest(http.MethodGet, "/v1/site/0/"+set.Domain, nil)
		if i%2 == 0 {
			r.Header.Set("Accept-Encoding", "gzip")
		}
		w.reset()
		h.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			b.Fatalf("%s: status %d", r.URL.Path, w.status)
		}
		r.Header.Set("If-None-Match", w.header.Get("ETag"))
		reqs[i] = r
	}
	return func(w *discardResponse, k, n int) {
		for i := k; i < len(reqs); i += n {
			r := reqs[i]
			w.reset()
			h.ServeHTTP(w, r)
			if w.status != http.StatusNotModified {
				b.Errorf("%s: status %d, want 304", r.URL.Path, w.status)
				return
			}
		}
	}
}

// BenchmarkServeRevalidate times one revalidation pass per op. One
// untimed pass after the last collection resolves the 304 series and
// refills the server's pooled response writers, so allocs/op counts
// what a steady-state pass allocates, and nothing the first 304 or a
// collection before the op leaves to do.
func BenchmarkServeRevalidate(b *testing.B) {
	pass := revalidationPass(b)
	w := &discardResponse{header: make(http.Header)}
	runtime.GC()
	pass(w, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass(w, 0, 1)
	}
}

// BenchmarkServeParallel times the revalidation pass split across
// GOMAXPROCS goroutines per op, so that -cpu 1,2 shows how the serving
// path scales: an op serves the same 1,000 requests at any -cpu, and
// half the -cpu 1 ns/op at -cpu 2 would be perfect scaling. Whatever
// every request writes in common shows up here, and in -mutexprofile,
// as contention. The goroutines, each with its own response writer,
// are started once and signalled per op, so an op allocates nothing of
// its own at any core count.
func BenchmarkServeParallel(b *testing.B) {
	pass := revalidationPass(b)
	procs := runtime.GOMAXPROCS(0)
	starts, done := make([]chan struct{}, procs), make(chan struct{})
	for k := range starts {
		start := make(chan struct{})
		starts[k] = start
		w := &discardResponse{header: make(http.Header)}
		go func() {
			for range start {
				pass(w, k, procs)
				done <- struct{}{}
			}
		}()
	}
	b.Cleanup(func() {
		for _, start := range starts {
			close(start)
		}
	})
	parallel := func() {
		for _, start := range starts {
			start <- struct{}{}
		}
		for range starts {
			<-done
		}
	}
	// Untimed ops first: a sync.Pool Put grows the local queue of the P
	// it runs on, and the goroutines move between Ps, so a single
	// warm-up op can leave a timed op to grow a queue (4 to 10 allocs
	// in most 1x ops at -cpu 4 on 2 cores; none after 20 warm-up ops).
	runtime.GC()
	for range 20 {
		parallel()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parallel()
	}
}
