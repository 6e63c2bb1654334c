package main

import (
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/hispar"
	"repro/internal/search"
	"repro/internal/toplist"
	"repro/internal/vclock"
	"repro/internal/webgen"
)

// setupParts is the wall time of each set-up layer in one set-up.
type setupParts struct {
	toplist, webgen, search, hispar, study time.Duration
}

func (p setupParts) total() time.Duration {
	return p.toplist + p.webgen + p.search + p.hispar + p.study
}

// setupSamples collects repeated set-ups; every metric is their median.
type setupSamples []setupParts

func (s setupSamples) median(f func(setupParts) time.Duration) float64 {
	xs := make([]float64, len(s))
	for i, p := range s {
		xs[i] = f(p).Seconds()
	}
	return median(xs)
}

// recordParts reports the median time of each set-up layer.
func (s setupSamples) recordParts(r *report) {
	med := s.median
	r.values["setup.toplist_s"] = med(func(p setupParts) time.Duration { return p.toplist })
	r.values["setup.webgen_s"] = med(func(p setupParts) time.Duration { return p.webgen })
	r.values["setup.search_s"] = med(func(p setupParts) time.Duration { return p.search })
	r.values["setup.hispar_s"] = med(func(p setupParts) time.Duration { return p.hispar })
	r.values["setup.study_s"] = med(func(p setupParts) time.Duration { return p.study })
}

// corpus is one freshly generated study input: the synthetic web, the
// Hispar list discovered on it, and the seeds that regenerate the web.
type corpus struct {
	seeds []webgen.SiteSeed
	web   *webgen.Web
	list  *hispar.List
}

// snapshotShape is how the input list is built; it mirrors the
// set-up of cmd/webmeasure (studies) and of hisparserve's snapshot build
// (serving).
type snapshotShape struct {
	sites, perSite int
	// universe sizes the toplist; bootstrapNum/bootstrapDen scale the
	// bootstrap list from the site count; minResults drops sites with
	// fewer search results.
	universe                   int
	bootstrapNum, bootstrapDen int
	minResults                 int
}

// studyShape is cmd/webmeasure's (and papereval's) list build.
func studyShape(sites, perSite int) snapshotShape {
	return snapshotShape{
		sites: sites, perSite: perSite,
		universe:     max(4000, sites*3),
		bootstrapNum: 7, bootstrapDen: 5,
		minResults: 5,
	}
}

// buildCorpus generates the toplist, the web and the Hispar list from
// the seed, timing each layer.
func buildCorpus(seed int64, shape snapshotShape) (*corpus, setupParts, error) {
	var p setupParts
	t := vclock.Wall()
	u := toplist.NewUniverse(toplist.Config{Seed: seed, Size: shape.universe})
	boot := u.Top(shape.sites * shape.bootstrapNum / shape.bootstrapDen)
	p.toplist = vclock.WallSince(t)

	t = vclock.Wall()
	seeds := make([]webgen.SiteSeed, len(boot))
	for i, e := range boot {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	web := webgen.Generate(webgen.Config{Seed: seed, Sites: seeds})
	p.webgen = vclock.WallSince(t)

	t = vclock.Wall()
	eng := search.New(web, search.Config{EnglishOnly: true})
	p.search = vclock.WallSince(t)

	t = vclock.Wall()
	list, _, err := hispar.Build(eng, boot, hispar.BuildConfig{
		Sites: shape.sites, URLsPerSite: shape.perSite, MinResults: shape.minResults,
	})
	p.hispar = vclock.WallSince(t)
	if err != nil {
		return nil, p, err
	}
	return &corpus{seeds: seeds, web: web, list: list}, p, nil
}

// freshWeb regenerates the corpus's web with none of the lazy per-site
// state a study builds, so a study on it pays what a first run pays.
func (c *corpus) freshWeb(seed int64) *webgen.Web {
	return webgen.Generate(webgen.Config{Seed: seed, Sites: c.seeds})
}

// newStudy wires a study over web, timing it as the study set-up layer.
func newStudy(web *webgen.Web, cfg core.StudyConfig) (*core.Study, time.Duration, error) {
	t := vclock.Wall()
	st, err := core.NewStudy(web, cfg)
	return st, vclock.WallSince(t), err
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes float64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(0), totalCPU: val(1), allocBytes: val(2)}
}

// runtimeDelta is the runtime cost of one timed unit of work.
type runtimeDelta struct {
	gcShare    float64 // GC CPU over all CPU the process used
	allocBytes float64
}

func runtimeSince(a runtimeSample) runtimeDelta {
	b := readRuntime()
	d := runtimeDelta{allocBytes: b.allocBytes - a.allocBytes}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcShare = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}
