package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/hispar"
	"repro/internal/runstats"
	"repro/internal/vclock"
)

// studyConfig sets every per-site parameter the replay also uses from
// the replay's own constants, so that the engine and the replay read one
// source.
func (w workload) studyConfig(seed int64, workers int) core.StudyConfig {
	return core.StudyConfig{
		Seed:             seed,
		LandingFetches:   w.fetches,
		Workers:          workers,
		CDNWarmthRate:    cdnWarmthRate,
		CDNWarmthCeiling: cdnWarmthCeiling,
		Faults:           w.faults,
		DNSFailProb:      w.dnsFail,
		MaxAttempts:      maxAttempts,
		RetryBackoff:     retryBackoff,
		RetryBackoffCap:  retryBackoffCap,
		SitePacing:       sitePacing,
	}
}

// studyUnit is one timed study over a fresh corpus.
type studyUnit struct {
	wall        time.Duration
	ops         int64 // pages measured, or page pairs for warm
	digest      string
	stats       runstats.Snapshot
	maxInFlight int
	rt          runtimeDelta
}

// runStudyUnit measures every site of list once, timing the engine call
// and the output it writes, and checks the output against the list.
func (w workload) runStudyUnit(st *core.Study, list *hispar.List, r *report) studyUnit {
	h := sha256.New()
	var (
		u    studyUnit
		outs []core.Outcome
		err  error
	)
	rt := readRuntime()
	t := vclock.Wall()
	if w.warm {
		var res *core.WarmStudyResult
		if res, err = st.RunWarm(list, core.WarmConfig{RevisitDelay: w.revisit}); err == nil {
			err = core.WriteWarmCSV(h, res)
			u.stats, outs = res.Stats, res.Outcomes
		}
	} else {
		var sink *core.CSVSink
		var res *core.StreamResult
		if sink, err = core.NewCSVSink(h); err == nil {
			if res, err = st.RunStream(list, core.StreamConfig{Sinks: []core.SiteSink{sink}}); err == nil {
				u.stats, outs, u.maxInFlight = res.Stats, res.Outcomes, res.MaxInFlight
			}
		}
	}
	u.wall = vclock.WallSince(t)
	u.rt = runtimeSince(rt)
	if err != nil {
		r.fail("study: %v", err)
		return u
	}
	u.ops = u.stats.Counters[w.pagesCounter()]
	w.checkOutcomes(outs, list, u.ops, r)
	u.digest = hex.EncodeToString(h.Sum(nil))
	return u
}

// pagesCounter names the engine counter of measured pages (page pairs
// for warm).
func (w workload) pagesCounter() string {
	if w.warm {
		return "warm.pairs"
	}
	return "pages.measured"
}

// checkOutcomes requires every page of the list to be accounted for: a
// fault-free study measures all of them; under injected faults each page
// is measured, dropped after its retries, or lost with its failed site.
func (w workload) checkOutcomes(outs []core.Outcome, list *hispar.List, measured int64, r *report) {
	var want int64
	failedSites := 0
	for i := range outs {
		if outs[i].OK {
			want += int64(list.Sets[i].PageCount() - outs[i].FailedPages)
		} else {
			failedSites++
		}
	}
	if measured != want {
		r.fail("%s = %d, but the outcomes account for %d measured pages", w.pagesCounter(), measured, want)
	}
	if !w.faulty() && (failedSites > 0 || measured != int64(list.Pages())) {
		r.fail("fault-free study: %d failed sites, %d/%d pages measured", failedSites, measured, list.Pages())
	}
}

// listDigest hashes a list's CSV form.
func listDigest(l *hispar.List) (string, error) {
	h := sha256.New()
	if err := l.WriteCSV(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runStudy runs a study workload: fresh set-up and one timed study per
// unit, units repeated while another fits in the budget, and at least
// three set-ups so that setup_s is a median. With trace on, it adds the
// serial replay that splits the cost by layer.
func (w workload) runStudy(opt options) *report {
	r := newReport()
	shape := studyShape(w.sites, w.perSite)
	var (
		setups   setupSamples
		units    []studyUnit
		mem      rssSampler
		measured time.Duration
		last     *corpus
		wantList string
	)
	setup := func() (*corpus, *core.Study, bool) {
		c, parts, err := buildCorpus(opt.seed, shape)
		if err != nil {
			r.fail("set-up: %v", err)
			return nil, nil, false
		}
		st, d, err := newStudy(c.web, w.studyConfig(opt.seed, workers))
		parts.study = d
		if err != nil {
			r.fail("set-up: %v", err)
			return nil, nil, false
		}
		setups = append(setups, parts)
		dg, err := listDigest(c.list)
		if err != nil {
			r.fail("list digest: %v", err)
			return nil, nil, false
		}
		if wantList == "" {
			wantList = dg
		} else if dg != wantList {
			r.fail("set-up is not deterministic: list digest %s, then %s", wantList, dg)
		}
		return c, st, true
	}

	for {
		c, st, ok := setup()
		if !ok {
			return r
		}
		last = c
		var u studyUnit
		mem.during(func() { u = w.runStudyUnit(st, c.list, r) })
		units = append(units, u)
		fmt.Fprintf(os.Stderr, "%s: unit %d: %d pages in %.2fs\n", w.name, len(units), u.ops, u.wall.Seconds())
		r.attempted += int64(c.list.Pages())
		if !w.faulty() {
			r.failed += int64(c.list.Pages()) - u.ops
		}
		measured += u.wall
		if measured+u.wall > opt.budget {
			break
		}
	}
	for len(setups) < minSetups {
		if _, _, ok := setup(); !ok {
			return r
		}
	}
	r.values["setup_s"] = setups.median(setupParts.total)
	setups.recordParts(r)
	if len(r.problems) > 0 {
		return r
	}

	rates := make([]float64, len(units))
	for i, u := range units {
		rates[i] = float64(u.ops) / u.wall.Seconds()
		if u.digest != units[0].digest {
			r.fail("study output is not deterministic: digest %s, then %s", units[0].digest, u.digest)
		}
	}
	r.sha256 = units[0].digest
	r.values["ops_per_s"] = median(rates)
	rss, err := mem.mean()
	if err != nil {
		r.fail("rss: %v", err)
	}
	r.values["rss_mb"] = rss
	w.recordEngine(units, last.list, r)
	if opt.traced {
		w.replayStudy(opt, last, r)
	}
	return r
}

// recordEngine reports what the untraced study's own counters say: no
// instrumentation beyond what the engine already keeps.
func (w workload) recordEngine(units []studyUnit, list *hispar.List, r *report) {
	u := units[0]
	c := u.stats.Counters
	pages := float64(list.Pages())
	var loadErrs int64
	for k, v := range c {
		if strings.HasPrefix(k, "loads.err.") {
			loadErrs += v
		}
	}
	r.values["failed_share"] = 1 - float64(u.ops)/pages
	r.values["core.retries_per_page"] = float64(c["retries.total"]) / pages
	r.values["browser.attempts_per_page"] = float64(c["loads.ok"]+loadErrs) / pages
	r.values["browser.failed_loads"] = float64(loadErrs)
	if w.warm && u.ops > 0 {
		r.values["browser.cache_hits_per_page"] = float64(c["warm.cache.hits"]) / float64(u.ops)
		r.values["browser.revalidations_per_page"] = float64(c["warm.cache.revalidations"]) / float64(u.ops)
	}
	r.values["engine.window_max"] = float64(u.maxInFlight)

	utils := make([]float64, 0, len(units))
	gcs := make([]float64, 0, len(units))
	allocs := make([]float64, 0, len(units))
	for _, u := range units {
		var sum float64
		n := 0
		for k, v := range u.stats.Gauges {
			if strings.HasPrefix(k, "worker.") && strings.HasSuffix(k, ".utilization") {
				sum += v
				n++
			}
		}
		if n > 0 {
			utils = append(utils, sum/float64(n))
		}
		gcs = append(gcs, u.rt.gcShare)
		if u.ops > 0 {
			allocs = append(allocs, u.rt.allocBytes/1024/float64(u.ops))
		}
	}
	r.values["engine.worker_util"] = median(utils)
	r.values["runtime.gc_cpu_share"] = median(gcs)
	r.values["runtime.alloc_kb_per_op"] = median(allocs)
}

// replayStudy is the traced run. It times the untraced engine at one
// worker over the leading replaySites sites of a fresh corpus, then
// replays the same sites serially from outside on another fresh corpus,
// one span per call into each layer, and requires the replay's load and
// page counts to equal the reference engine's counters.
func (w workload) replayStudy(opt options, c *corpus, r *report) {
	sub := c.list.Top(w.replaySites)
	cfg := w.studyConfig(opt.seed, 1)

	refSt, _, err := newStudy(c.freshWeb(opt.seed), cfg)
	if err != nil {
		r.fail("reference set-up: %v", err)
		return
	}
	t := vclock.Wall()
	refStats, err := w.referenceRun(refSt, sub)
	refWall := vclock.WallSince(t)
	if err != nil {
		r.fail("reference run: %v", err)
		return
	}

	web := c.freshWeb(opt.seed)
	st, _, err := newStudy(web, cfg)
	if err != nil {
		r.fail("replay set-up: %v", err)
		return
	}
	rp, err := newReplayer(w, opt.seed, web, st.Analyzers())
	if err != nil {
		r.fail("replay set-up: %v", err)
		return
	}
	if err := rp.run(sub); err != nil {
		r.fail("replay: %v", err)
		return
	}
	rp.record(r, refWall)

	pagesKey := w.pagesCounter()
	if got, want := rp.loadsOK, refStats.Counters["loads.ok"]; got != want {
		r.fail("replay made %d successful loads, the engine %d", got, want)
	}
	if got, want := rp.pages, refStats.Counters[pagesKey]; got != want {
		r.fail("replay measured %d pages, the engine %s = %d", got, pagesKey, want)
	}
	if got, want := rp.onLoadMS, refStats.Histograms["load.onload.ms"].Sum; got != want {
		r.fail("replay loads sum to %v ms of onLoad, the engine's to %v ms", got, want)
	}
	if opt.tracePath != "" {
		if err := writeTrace(opt.tracePath, rp.spans); err != nil {
			r.fail("write trace: %v", err)
		}
	}
}

// referenceRun is the untraced engine over the replayed sites, writing
// the same output the workload writes.
func (w workload) referenceRun(st *core.Study, list *hispar.List) (runstats.Snapshot, error) {
	if w.warm {
		res, err := st.RunWarm(list, core.WarmConfig{RevisitDelay: w.revisit})
		if err != nil {
			return runstats.Snapshot{}, err
		}
		return res.Stats, core.WriteWarmCSV(io.Discard, res)
	}
	sink, err := core.NewCSVSink(io.Discard)
	if err != nil {
		return runstats.Snapshot{}, err
	}
	res, err := st.RunStream(list, core.StreamConfig{Sinks: []core.SiteSink{sink}})
	if err != nil {
		return runstats.Snapshot{}, err
	}
	return res.Stats, nil
}
