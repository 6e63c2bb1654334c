package core

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/hispar"
	"repro/internal/runstats"
	"repro/internal/search"
	"repro/internal/simnet"
	"repro/internal/toplist"
	"repro/internal/webgen"
)

// faultWeb builds a small web + Hispar list for the fault-injection
// tests (the smoke test's pipeline at reduced scale).
func faultWeb(t *testing.T) (*webgen.Web, *hispar.List) {
	t.Helper()
	u := toplist.NewUniverse(toplist.Config{Seed: 7, Size: 300})
	entries := u.Top(30)
	seeds := make([]webgen.SiteSeed, len(entries))
	for i, e := range entries {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	web := webgen.Generate(webgen.Config{Seed: 7, Sites: seeds})
	eng := search.New(web, search.Config{EnglishOnly: true})
	list, _, err := hispar.Build(eng, entries, hispar.BuildConfig{
		Sites: 12, URLsPerSite: 5, MinResults: 3, Name: "Hfault",
	})
	if err != nil {
		t.Fatalf("hispar build: %v", err)
	}
	return web, list
}

// runStudy runs one study over the fault web with the given config knobs
// applied on top of the shared small-scale base.
func runStudy(t *testing.T, web *webgen.Web, list *hispar.List, mutate func(*StudyConfig)) (*StudyResult, error) {
	t.Helper()
	cfg := StudyConfig{Seed: 7, LandingFetches: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	st, err := NewStudy(web, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st.Run(list)
}

// outcomeKey strips the non-comparable error from an Outcome so whole
// runs can be compared for determinism.
type outcomeKey struct {
	Domain      string
	OK          bool
	Attempts    int
	Retries     int
	FailedPages int
	Class       ErrorClass
	Elapsed     time.Duration
}

// checkLoadAccounting requires the per-site outcomes of a run over list
// to account for exactly the loads and pages the run's metrics saw, so
// that a dropped or doubled Commit shows: ΣRetries == retries.total ==
// the retry.backoff.ms count, ΣAttempts == loads.ok + Σloads.err.* ==
// the site.attempts sum, loads.ok == the load.onload.ms count, one
// site.attempts sample per outcome, ΣFailedPages == pages.dropped, and
// pages.measured == Σ(1 + len(Internal) − FailedPages) over the sites
// with OK set. Zero counts stay unset: no retries.total, pages.dropped
// or loads.err.* key holds 0. Both engines' step functions must hold
// it, faults or not.
func checkLoadAccounting(t *testing.T, list *hispar.List, outs []Outcome, snap runstats.Snapshot) {
	t.Helper()
	var attempts, retries, dropped, measured, loads int64
	for i, o := range outs {
		attempts += int64(o.Attempts)
		retries += int64(o.Retries)
		dropped += int64(o.FailedPages)
		if o.OK {
			measured += int64(1 + len(list.Sets[i].Internal) - o.FailedPages)
		}
	}
	for k, v := range snap.Counters {
		if k == "loads.ok" || strings.HasPrefix(k, "loads.err.") {
			loads += v
		}
		if (k == "retries.total" || k == "pages.dropped" || strings.HasPrefix(k, "loads.err.")) && v == 0 {
			t.Errorf("%s is set to 0; zero counts stay unset", k)
		}
	}
	c, h := snap.Counters, snap.Histograms
	for _, eq := range []struct {
		what      string
		got, want int64
	}{
		{"retries.total against the outcomes' retries", c["retries.total"], retries},
		{"retry.backoff.ms count against retries.total", h["retry.backoff.ms"].Count, c["retries.total"]},
		{"load counters against the outcomes' attempts", loads, attempts},
		{"load.onload.ms count against loads.ok", h["load.onload.ms"].Count, c["loads.ok"]},
		{"site.attempts count against the outcomes", h["site.attempts"].Count, int64(len(outs))},
		{"site.attempts sum against the outcomes' attempts", int64(h["site.attempts"].Sum), attempts},
		{"pages.dropped against the outcomes' failed pages", c["pages.dropped"], dropped},
		{"pages.measured against the outcomes' surviving pages", c["pages.measured"], measured},
	} {
		if eq.got != eq.want {
			t.Errorf("%s: %d, want %d", eq.what, eq.got, eq.want)
		}
	}
}

// TestZeroCountsStayUnset: a fault-free run, cold or warm, reports no
// retries, dropped pages or load errors at all, not a 0 under their
// keys. A faulted run that retried, dropped internal pages and lost
// loads to timeouts reports each of them (and checkLoadAccounting holds
// every count to the outcomes).
func TestZeroCountsStayUnset(t *testing.T) {
	web, list := faultWeb(t)
	cold, err := runStudy(t, web, list, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := runWarmStudy(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := runStudy(t, web, list, func(c *StudyConfig) {
		c.Faults = simnet.FaultConfig{Rates: simnet.FaultRates{Timeout: 0.2}}
		c.MaxAttempts = 2
		c.FailureBudget = -1
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name string
		list *hispar.List
		outs []Outcome
		snap runstats.Snapshot
	}{
		{"cold", cold.List, cold.Outcomes, cold.Stats},
		{"warm", warm.List, warm.Outcomes, warm.Stats},
		{"faulted", faulted.List, faulted.Outcomes, faulted.Stats},
	} {
		checkLoadAccounting(t, run.list, run.outs, run.snap)
		if run.snap.Counters["pages.measured"] == 0 {
			t.Errorf("%s: run measured no pages", run.name)
		}
		for _, k := range []string{"retries.total", "pages.dropped", "loads.err." + string(ClassTimeout)} {
			if _, set := run.snap.Counters[k]; set != (run.name == "faulted") {
				t.Errorf("%s run: %s set = %v", run.name, k, set)
			}
		}
		if run.name != "faulted" {
			for k := range run.snap.Counters {
				if strings.HasPrefix(k, "loads.err.") {
					t.Errorf("%s: fault-free run reports %s", run.name, k)
				}
			}
		}
	}
}

func keysOf(outs []Outcome) []outcomeKey {
	ks := make([]outcomeKey, len(outs))
	for i, o := range outs {
		ks[i] = outcomeKey{o.Domain, o.OK, o.Attempts, o.Retries, o.FailedPages, o.Class, o.Elapsed}
	}
	return ks
}

// TestStudyRetriesUntilSuccess injects a ~5% fault mix and checks the
// run completes with most sites measured, retries visible in outcomes,
// and per-class error counts in the metrics.
func TestStudyRetriesUntilSuccess(t *testing.T) {
	web, list := faultWeb(t)
	res, err := runStudy(t, web, list, func(c *StudyConfig) {
		c.Faults = simnet.FaultConfig{Rates: simnet.FaultRates{Timeout: 0.03, Truncate: 0.02}}
		c.DNSFailProb = 0.05
	})
	if err != nil {
		t.Fatalf("a 5%% fault rate must stay inside the default failure budget: %v", err)
	}
	if len(res.Outcomes) != len(list.Sets) {
		t.Fatalf("outcomes %d != sites %d", len(res.Outcomes), len(list.Sets))
	}
	if got := len(res.Sites); got < len(list.Sets)*9/10 {
		t.Errorf("only %d/%d sites yielded measurements, want >=90%%", got, len(list.Sets))
	}
	retries := 0
	for _, o := range res.Outcomes {
		retries += o.Retries
	}
	if retries == 0 {
		t.Error("no retries at a 5% fault rate — injection is not reaching the runner")
	}
	var classed int64
	for _, c := range []ErrorClass{ClassDNS, ClassTimeout, ClassTruncated} {
		classed += res.Stats.Counters["loads.err."+string(c)]
	}
	if classed == 0 {
		t.Error("metrics carry no per-class error counts")
	}
	if res.Stats.Counters["loads.ok"] == 0 || res.Stats.Counters["sites.total"] != int64(len(list.Sets)) {
		t.Errorf("load accounting off: %+v", res.Stats.Counters)
	}
	checkLoadAccounting(t, list, res.Outcomes, res.Stats)
}

// TestFailureBudgetExhaustion pins the resolver failure rate to 1 so
// every site dies after its retries: Run must return the partial result
// plus an aggregate error that joins the per-site failures.
func TestFailureBudgetExhaustion(t *testing.T) {
	web, list := faultWeb(t)
	res, err := runStudy(t, web, list, func(c *StudyConfig) {
		c.DNSFailProb = 1
		c.MaxAttempts = 2
	})
	if err == nil {
		t.Fatal("total failure must exceed the default budget")
	}
	if !errors.Is(err, browser.ErrDNS) {
		t.Errorf("aggregate error must join the per-site DNS failures: %v", err)
	}
	if res == nil {
		t.Fatal("partial result must survive a budget breach")
	}
	if len(res.Sites) != 0 || res.FailedSites() != len(list.Sets) {
		t.Errorf("want all %d sites failed, got %d ok / %d failed",
			len(list.Sets), len(res.Sites), res.FailedSites())
	}
	for _, o := range res.Outcomes {
		if o.Class != ClassDNS || o.Err == nil {
			t.Errorf("%s: class=%q err=%v, want dns", o.Domain, o.Class, o.Err)
		}
		// The landing page dies on fetch 0 after MaxAttempts tries.
		if o.Attempts != 2 {
			t.Errorf("%s: attempts=%d, want 2", o.Domain, o.Attempts)
		}
		if o.Elapsed <= 0 {
			t.Errorf("%s: elapsed=%v, want >0 (backoff consumes virtual time)", o.Domain, o.Elapsed)
		}
	}
	// An unlimited budget turns the same run into a degraded success.
	res2, err2 := runStudy(t, web, list, func(c *StudyConfig) {
		c.DNSFailProb = 1
		c.MaxAttempts = 2
		c.FailureBudget = -1
	})
	if err2 != nil {
		t.Fatalf("unlimited budget must not error: %v", err2)
	}
	if res2.FailedSites() != len(list.Sets) {
		t.Errorf("failed sites = %d, want %d", res2.FailedSites(), len(list.Sets))
	}
	checkLoadAccounting(t, list, res.Outcomes, res.Stats)

	// The warm study runs on the same engine and budget: the landing
	// pair's cold leg dies after MaxAttempts tries on every site.
	warm, werr := runWarmStudy(t, func(c *StudyConfig) {
		c.DNSFailProb = 1
		c.MaxAttempts = 2
	})
	if werr == nil || !errors.Is(werr, browser.ErrDNS) {
		t.Errorf("warm: aggregate error must join the per-site DNS failures: %v", werr)
	}
	if warm == nil {
		t.Fatal("warm: partial result must survive a budget breach")
	}
	if len(warm.Sites) != 0 || warm.FailedSites() != len(list.Sets) {
		t.Errorf("warm: want all %d sites failed, got %d ok / %d failed",
			len(list.Sets), len(warm.Sites), warm.FailedSites())
	}
	for _, o := range warm.Outcomes {
		if o.Class != ClassDNS || o.Attempts != 2 || o.Retries != 1 {
			t.Errorf("warm %s: class=%q attempts=%d retries=%d, want dns/2/1", o.Domain, o.Class, o.Attempts, o.Retries)
		}
	}
	checkLoadAccounting(t, warm.List, warm.Outcomes, warm.Stats)
}

// TestFaultedStudyDeterministic runs the same faulted study twice and
// demands identical measurements and outcomes — fault injection must be
// as reproducible as the fault-free path.
func TestFaultedStudyDeterministic(t *testing.T) {
	web, list := faultWeb(t)
	run := func() *StudyResult {
		res, err := runStudy(t, web, list, func(c *StudyConfig) {
			c.Faults = simnet.FaultConfig{Rates: simnet.FaultRates{Timeout: 0.05, Truncate: 0.03, Loss: 0.05}}
			c.DNSFailProb = 0.05
			c.FailureBudget = -1
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(keysOf(a.Outcomes), keysOf(b.Outcomes)) {
		t.Fatalf("outcomes differ across identical faulted runs:\n%+v\n%+v", keysOf(a.Outcomes), keysOf(b.Outcomes))
	}
	if !reflect.DeepEqual(a.Sites, b.Sites) {
		t.Fatal("site measurements differ across identical faulted runs")
	}
	checkLoadAccounting(t, list, a.Outcomes, a.Stats)
}

// TestWorkerCountInvariance locks the tentpole guarantee: the study's
// measurements are a pure function of list + config; worker parallelism
// must never leak into them. Run with and without faults.
func TestWorkerCountInvariance(t *testing.T) {
	web, list := faultWeb(t)
	cases := []struct {
		name   string
		mutate func(*StudyConfig)
	}{
		{"fault-free", nil},
		{"faulted", func(c *StudyConfig) {
			c.Faults = simnet.FaultConfig{Rates: simnet.FaultRates{Timeout: 0.04, Loss: 0.05}}
			c.DNSFailProb = 0.04
			c.FailureBudget = -1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) *StudyResult {
				res, err := runStudy(t, web, list, func(c *StudyConfig) {
					c.Workers = workers
					if tc.mutate != nil {
						tc.mutate(c)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			serial, parallel := run(1), run(8)
			if !reflect.DeepEqual(serial.Sites, parallel.Sites) {
				for i := range serial.Sites {
					if !reflect.DeepEqual(serial.Sites[i], parallel.Sites[i]) {
						t.Fatalf("site %s measured differently at Workers=1 vs 8:\n%+v\n%+v",
							serial.Sites[i].Domain, serial.Sites[i], parallel.Sites[i])
					}
				}
				t.Fatal("site sets differ between Workers=1 and Workers=8")
			}
			if !reflect.DeepEqual(keysOf(serial.Outcomes), keysOf(parallel.Outcomes)) {
				t.Fatal("outcomes differ between Workers=1 and Workers=8")
			}
		})
	}
}

// TestReleasedLogsKeepCSV runs the same fault-injected study with every
// measured log handed back to its browser and with none, and requires
// identical cold and warm CSV bytes. Faults make loads retry, abort
// sub-resources and drop undiscovered children, so both the browser's
// recycled storage and the faulted loads' compacted copies are in play.
func TestReleasedLogsKeepCSV(t *testing.T) {
	web, list := faultWeb(t)
	cfg := StudyConfig{
		Seed: 7, LandingFetches: 3, Workers: 2, FailureBudget: -1,
		Faults:      simnet.FaultConfig{Rates: simnet.FaultRates{Timeout: 0.02, Truncate: 0.02, Loss: 0.05}},
		DNSFailProb: 0.03,
	}
	run := func(keepLogs bool) (cold, warm []byte, sites []SiteResult, outs []Outcome) {
		st, err := NewStudy(web, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st.keepLogs = keepLogs
		var cb, wb bytes.Buffer
		csv, err := NewCSVSink(&cb)
		if err != nil {
			t.Fatal(err)
		}
		col := &Collector[SiteResult]{}
		res, err := st.RunStream(list, StreamConfig{Sinks: []SiteSink{csv, col}})
		if err != nil {
			t.Fatal(err)
		}
		wcsv, err := NewWarmCSVSink(&wb)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.RunWarmStream(list, WarmConfig{Sinks: []Sink[WarmSiteResult]{wcsv}}); err != nil {
			t.Fatal(err)
		}
		return cb.Bytes(), wb.Bytes(), col.Sites, res.Outcomes
	}
	cold, warm, sites, outs := run(false)
	keptCold, keptWarm, _, _ := run(true)
	if !bytes.Equal(cold, keptCold) {
		t.Error("cold CSV differs between released and kept logs")
	}
	if !bytes.Equal(warm, keptWarm) {
		t.Error("warm CSV differs between released and kept logs")
	}

	// The faults must have reached both storage paths: failed attempts
	// (whose logs are released before the retry) and successful loads
	// that lost sub-resources (whose logs are compacted copies).
	retries := 0
	for _, o := range outs {
		retries += o.Retries
	}
	short := 0
	for _, s := range sites {
		for _, p := range s.Internal {
			page, ok := web.PageByURL(p.URL)
			if !ok {
				t.Fatalf("measured page %s not in the web", p.URL)
			}
			if p.Objects < len(page.Build().Objects) {
				short++
			}
		}
	}
	if retries == 0 || short == 0 {
		t.Fatalf("faults too rare to exercise both paths: %d retries, %d pages missing objects", retries, short)
	}
}
