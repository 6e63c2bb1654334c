package core

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/browser"
	"repro/internal/cdn"
	"repro/internal/har"
	"repro/internal/hispar"
	"repro/internal/runstats"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/webgen"
)

// This file is the study engine every study kind shares. Workers run a
// per-site step (cold: measureSiteResilient, warm: measureSiteWarm) on
// isolated site contexts; finished sites flow through a bounded reorder
// window to a single fold goroutine that retires them in site-rank
// order — stamping each site's span, then handing the result to the
// run's sinks (CSV writers, collectors) — and drops them. Peak retained
// site results are bounded by the window regardless of list size.
//
// Determinism: because retirement runs in site-rank order, every
// accumulated float, sink byte and merged span sees the same order at
// any worker count — the invariant TestArtifactsInvariantAcrossParallelism
// and TestStreamTraceInvariantAcrossWorkers enforce.

// Sink consumes sites as the engine retires them. ConsumeSite is called
// exactly once per input site — failed ones included (with a zero
// result), so sinks can account for every input — always from a single
// goroutine and always in site-index order, until the sink returns an
// error: a failing sink is dropped while the run's other sinks keep
// receiving sites. Flush is called once after the last site, on every
// sink. The run's error joins every sink error.
type Sink[R any] interface {
	ConsumeSite(res *R, out *Outcome) error
	Flush() error
}

// Collector is a sink that keeps every surviving site in rank order: how
// Run and RunWarm rebuild their in-memory results on the streaming
// engines, and how a caller gets the site list and a trace from one run.
type Collector[R any] struct {
	Sites []R
}

// ConsumeSite appends the site if it survived.
func (c *Collector[R]) ConsumeSite(res *R, out *Outcome) error {
	if out.OK {
		c.Sites = append(c.Sites, *res)
	}
	return nil
}

// Flush does nothing: the sites are already collected.
func (c *Collector[R]) Flush() error { return nil }

// LogHook receives the HAR log of each page load the study measures:
// fetch 0 of every landing page, every internal page, and both legs of
// every warm pair (warm reports the second leg). It is called on the
// worker goroutine that measured the page, so calls may run
// concurrently, and the log is valid only until the call returns: the
// engine then hands its storage to the next load. The first error is
// joined into the run's error, as a sink's is, and the hook is not
// called again.
type LogHook func(log *har.Log, warm bool) error

// logTap calls one run's LogHook and keeps its first error.
type logTap struct {
	hook LogHook
	err  atomic.Pointer[error]
}

// emit hands log to the hook unless it has already failed. It inlines,
// so a nil tap (a run without a hook) costs one pointer check.
func (t *logTap) emit(log *har.Log, warm bool) {
	if t != nil && t.err.Load() == nil {
		t.call(log, warm)
	}
}

func (t *logTap) call(log *har.Log, warm bool) {
	if err := t.hook(log, warm); err != nil {
		err = fmt.Errorf("core: log hook: %w", err)
		t.err.CompareAndSwap(nil, &err)
	}
}

// worker is the storage one engine worker owns and hands to every site
// it measures: the page-model builder, the browser (Reset for each
// site), the CDN network its loads re-seed, the warm study's cache
// (Reset for each cold/warm pair) and the measurer. Each site still
// starts from its own seeds, clock and resolver, each pair from an empty
// cache, every reused buffer is emptied before it is read, and the
// measurer reuses only what a pure function of its inputs derived, so
// no result depends on which worker measured a site or what it measured
// before. Owning the storage, rather than drawing it from a sync.Pool,
// keeps reuse independent of garbage collection timing.
type worker struct {
	pages webgen.Builder
	b     *browser.Browser
	edges *cdn.Network
	cache *browser.Cache
	ms    measurer
	// logs is the run's log tap (nil without a LogHook).
	logs *logTap
}

// siteDone carries one measured site from a worker to the fold.
type siteDone[R any] struct {
	i   int
	res R
	out Outcome
	// rec holds the site's spans (nil when tracing is off); the fold
	// stamps the site span into it and merges it in rank order.
	rec *trace.Recorder
}

// siteRun is what the engine hands back to the wrapper that called it.
type siteRun struct {
	outcomes []Outcome
	failed   int
	// maxInFlight is the peak number of completed-but-unretired sites
	// the reorder window held.
	maxInFlight int
	// stats holds this run's metrics only: every run starts a fresh set,
	// so a second run on the same Study never reports cumulative counts.
	stats *runstats.Set
}

// runSites measures every site of the list with measure and retires the
// results through sinks under the Sink contract. At most window sites
// (default 4×Workers, never below Workers+1) are dispatched but not yet
// retired. Every site is always attempted; the failure budget decides
// only whether the aggregate error rides along with the run, which is
// never nil. measure records its metrics into the run's stats set and
// hands its measured logs to logs.
func runSites[R any](st *Study, list *hispar.List, window int, tr *trace.Tracer, logs LogHook,
	measure func(w *worker, i int, set hispar.URLSet, rec *trace.Recorder, rs *runstats.Set) (R, Outcome),
	sinks []Sink[R]) (*siteRun, error) {
	workers := st.cfg.Workers
	if window <= 0 {
		window = 4 * workers
	}
	if window < workers+1 {
		window = workers + 1
	}
	n := len(list.Sets)
	rs := runstats.NewSet()
	run := &siteRun{outcomes: make([]Outcome, n), stats: rs}

	jobs := make(chan int)
	// Window tokens bound dispatched-but-unretired sites: acquired before
	// a site is handed to a worker, released when the fold retires it.
	// The fold never acquires, so the loop cannot deadlock. completed is
	// sized to the same bound, so a worker's send never waits on the fold.
	completed := make(chan siteDone[R], window)
	tokens := make(chan struct{}, window)
	var tap *logTap
	if logs != nil {
		tap = &logTap{hook: logs}
	}

	var workerWG sync.WaitGroup
	// Operational telemetry only: worker utilization is real elapsed
	// time by definition, so it goes through vclock.Wall — the sanctioned
	// wall-clock accessor — and never touches measurement results.
	wallStart := vclock.Wall()
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func(w int) {
			defer workerWG.Done()
			own := worker{logs: tap}
			var busy time.Duration
			sites := 0
			for i := range jobs {
				t0 := vclock.Wall()
				// Chrome trace rows are per-site (tid = site index + 1),
				// never per-worker: worker identity must not leak into the
				// byte-stable trace.
				rec := tr.Recorder(int64(i)+1, list.Sets[i].Rank)
				r, out := measure(&own, i, list.Sets[i], rec, rs)
				busy += vclock.WallSince(t0)
				sites++
				completed <- siteDone[R]{i: i, res: r, out: out, rec: rec}
			}
			if wall := vclock.WallSince(wallStart); wall > 0 {
				rs.SetGauge(fmt.Sprintf("worker.%d.utilization", w), busy.Seconds()/wall.Seconds())
			}
			rs.SetGauge(fmt.Sprintf("worker.%d.sites", w), float64(sites))
		}(w)
	}

	// The fold: a single goroutine retiring sites in rank order through
	// a reorder buffer keyed by site index.
	var siteErrs, sinkErrs []error
	// retries, dropped and measured sum the retired outcomes' Retries,
	// FailedPages and surviving pages: the outcomes are the record, the
	// counters derive from them.
	var retries, dropped, measured int64
	// live holds the sinks still consuming; a failing sink's slot is nil.
	live := append([]Sink[R](nil), sinks...)
	var foldWG sync.WaitGroup
	foldWG.Add(1)
	go func() {
		defer foldWG.Done()
		spans := siteSpans{st: st, tr: tr}
		pending := make(map[int]siteDone[R], window)
		next := 0
		for d := range completed {
			pending[d.i] = d
			if len(pending) > run.maxInFlight {
				run.maxInFlight = len(pending)
			}
			for {
				cur, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				out := &run.outcomes[next]
				*out = cur.out
				rs.Commit(runstats.Update{Series: siteAttempts, Sample: float64(out.Attempts)})
				retries += int64(out.Retries)
				dropped += int64(out.FailedPages)
				if out.OK {
					measured += int64(1 + len(list.Sets[next].Internal) - out.FailedPages)
				}
				spans.record(next, out, cur.rec)
				if !out.OK {
					siteErrs = append(siteErrs, out.Err)
				}
				for k, s := range live {
					if s == nil {
						continue
					}
					if err := s.ConsumeSite(&cur.res, out); err != nil {
						sinkErrs = append(sinkErrs, fmt.Errorf("core: sink: %w", err))
						live[k] = nil
					}
				}
				next++
				<-tokens
			}
		}
	}()

	for i := 0; i < n; i++ {
		tokens <- struct{}{}
		jobs <- i
	}
	close(jobs)
	workerWG.Wait()
	close(completed)
	foldWG.Wait()
	for _, s := range sinks {
		if err := s.Flush(); err != nil {
			sinkErrs = append(sinkErrs, fmt.Errorf("core: sink flush: %w", err))
		}
	}
	if tap != nil && tap.err.Load() != nil {
		sinkErrs = append(sinkErrs, *tap.err.Load())
	}
	run.failed = len(siteErrs)
	totals := []runstats.Update{
		{Series: sitesTotal, Delta: int64(n)},
		{Series: sitesOK, Delta: int64(n - run.failed)},
		{Series: sitesFailed, Delta: int64(run.failed)},
	}
	// Zero counts stay unset: a fault-free run reports no retries and no
	// dropped pages, and a run that measured nothing no pages.
	for _, u := range []runstats.Update{
		{Series: retriesTotal, Delta: retries},
		{Series: pagesDropped, Delta: dropped},
		{Series: pagesMeasured, Delta: measured},
	} {
		if u.Delta > 0 {
			totals = append(totals, u)
		}
	}
	rs.Commit(totals...)
	if n > 0 {
		rs.SetGauge("failure.budget.used", float64(run.failed)/float64(n))
	}
	rs.SetGauge("stream.window", float64(window))
	rs.SetGauge("stream.inflight.max", float64(run.maxInFlight))

	var budgetErr error
	if st.cfg.FailureBudget >= 0 {
		if allowed := int(st.cfg.FailureBudget * float64(n)); run.failed > allowed {
			budgetErr = fmt.Errorf("core: %d/%d sites failed, exceeding the failure budget of %d: %w",
				run.failed, n, allowed, errors.Join(siteErrs...))
		}
	}
	return run, errors.Join(append([]error{budgetErr}, sinkErrs...)...)
}

// siteSpans stamps each retiring site's root span into its recorder and
// merges the recorder into the run tracer. The reorder-window wait
// attribute is virtual and order-derived — how far this site's virtual
// completion trails the latest one already retired — so it is identical
// at any worker count, unlike a wall-clock wait.
type siteSpans struct {
	st       *Study
	tr       *trace.Tracer
	maxDoneV time.Duration
}

func (s *siteSpans) record(i int, out *Outcome, rec *trace.Recorder) {
	if s.tr == nil {
		return
	}
	start := s.st.epoch.Add(time.Duration(i) * s.st.cfg.SitePacing)
	doneV := time.Duration(i)*s.st.cfg.SitePacing + out.Elapsed
	wait := s.maxDoneV - doneV
	if wait < 0 {
		wait = 0
	}
	if doneV > s.maxDoneV {
		s.maxDoneV = doneV
	}
	attrs := []trace.Attr{
		{Key: "rank", Val: strconv.Itoa(out.Rank)},
		{Key: "domain", Val: out.Domain},
		{Key: "attempts", Val: strconv.Itoa(out.Attempts)},
		{Key: "retries", Val: strconv.Itoa(out.Retries)},
		{Key: "window.wait_us", Val: strconv.FormatInt(wait.Microseconds(), 10)},
	}
	if out.OK {
		attrs = append(attrs, trace.Attr{Key: "ok", Val: "true"})
		if out.FailedPages > 0 {
			attrs = append(attrs, trace.Attr{Key: "failed_pages", Val: strconv.Itoa(out.FailedPages)})
		}
	} else {
		attrs = append(attrs, trace.Attr{Key: "ok", Val: "false"},
			trace.Attr{Key: "class", Val: string(out.Class)})
	}
	rec.Record(trace.Span{
		ID:   trace.SiteSpanID(out.Rank),
		Name: "site " + out.Domain, Cat: "site",
		Start: start, Dur: out.Elapsed, Attrs: attrs,
	})
	s.tr.Merge(rec)
}

// errNotInSnapshot marks a study asking for a site or page the web
// snapshot does not contain; Classify maps it to ClassConfig.
var errNotInSnapshot = errors.New("not in web snapshot")

// measureSite is the site-open prologue both per-site steps share: it
// builds site i's isolated context on w's storage, parents the
// browser's load spans under the site span the fold will record, looks
// the site up in the web snapshot, and then runs pages — the step's own
// page loop — on it, recording the site's metrics into the run's set
// rs. An error from pages fails the site with its class; Elapsed is the
// virtual time the page loop consumed, failures included.
func measureSite[R any](st *Study, w *worker, i int, set hispar.URLSet, rec *trace.Recorder, rs *runstats.Set,
	pages func(sc *siteCtx, site *webgen.Site, out *Outcome) (R, error)) (R, Outcome) {
	out := Outcome{Domain: set.Domain, Rank: set.Rank}
	fail := func(err error, class ErrorClass) (R, Outcome) {
		var zero R
		out.Class = class
		out.Err = fmt.Errorf("core: site %s: %w", set.Domain, err)
		return zero, out
	}
	sc, err := st.newSiteCtx(i, w)
	if err != nil {
		return fail(err, ClassConfig)
	}
	sc.rec, sc.stats = rec, rs
	rec.SetParent(trace.SiteSpanID(set.Rank))
	sc.b.SetTrace(rec)
	site, ok := st.web.SiteByDomain(set.Domain)
	if !ok {
		return fail(fmt.Errorf("site %w", errNotInSnapshot), ClassConfig)
	}
	start := sc.clock.Now()
	res, err := pages(sc, site, &out)
	out.Elapsed = sc.clock.Since(start)
	if err != nil {
		return fail(err, Classify(err))
	}
	out.OK = true
	return res, out
}
