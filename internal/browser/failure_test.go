package browser

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cdn"
	"repro/internal/dnssim"
	"repro/internal/har"
	"repro/internal/simnet"
	"repro/internal/webgen"
)

// TestLoadSurvivesNXDOMAIN injects DNS failures for third-party hosts
// and checks the load still completes: a real browser renders a page
// even when some vendors' domains do not resolve.
func TestLoadSurvivesNXDOMAIN(t *testing.T) {
	_, web := testBrowser(t, 2.2)
	site := web.Sites[0]

	// An authority that refuses every third-party name.
	flaky := dnssim.AuthorityFunc(func(host string) (dnssim.Record, bool) {
		if !strings.Contains(host, site.Domain) {
			return dnssim.Record{}, false
		}
		return dnssim.Record{Host: host, Addr: dnssim.SyntheticAddr(host), TTL: time.Hour}, true
	})
	resolver := dnssim.NewResolver(dnssim.ResolverConfig{Name: "flaky", Seed: 51}, flaky, nil)
	b, err := New(Config{
		Seed:     51,
		Resolver: resolver,
		CDNFactory: func() *cdn.Network {
			return cdn.NewNetwork(1<<14, cdn.PopularityWarmth(2.2, 0.97), 51)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := site.Landing().Build()
	log, err := b.LoadRevisit(m, 0, 0, 0)
	if err != nil {
		t.Fatalf("load must survive third-party NXDOMAINs: %v", err)
	}
	if len(log.Entries) != len(m.Objects) {
		t.Fatalf("entries = %d, want %d", len(log.Entries), len(m.Objects))
	}
	// Failed resolutions cost time, they do not vanish.
	var tpDNS time.Duration
	for i, e := range log.Entries {
		if m.Objects[i].ThirdParty && e.Timings.DNS > 0 {
			tpDNS += e.Timings.DNS
		}
	}
	if tpDNS < 100*time.Millisecond {
		t.Errorf("third-party DNS failures should cost noticeable time, got %v", tpDNS)
	}
}

// TestLoadDeterministicPerFetchID locks reproducibility: the same model
// and fetch ID must produce an identical HAR.
func TestLoadDeterministicPerFetchID(t *testing.T) {
	mkB := func() (*Browser, *webgen.Web) { return testBrowser(t, 2.2) }
	b1, web := mkB()
	b2, _ := mkB()
	m := web.Sites[3].Landing().Build()
	l1, err := b1.LoadRevisit(m, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := b2.LoadRevisit(m, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Page.Timings != l2.Page.Timings {
		t.Fatalf("page timings differ: %+v vs %+v", l1.Page.Timings, l2.Page.Timings)
	}
	for i := range l1.Entries {
		if l1.Entries[i].Timings != l2.Entries[i].Timings {
			t.Fatalf("entry %d timings differ", i)
		}
	}
}

// faultyBrowser builds a browser over the shared test web with the given
// fault configuration and resolver failure probability.
func faultyBrowser(t *testing.T, web *webgen.Web, faults simnet.FaultConfig, dnsFail float64) *Browser {
	t.Helper()
	resolver := dnssim.NewResolver(dnssim.ResolverConfig{
		Name: "isp", Seed: 51, WarmQueryRate: 0.8, FailProb: dnsFail,
	}, web.Authority(), nil)
	b, err := New(Config{
		Seed:       51,
		Resolver:   resolver,
		Net:        simnet.Config{Faults: faults},
		CDNFactory: resetNetwork(2.2),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTypedLoadErrors drives each injected fault class to a root-document
// failure and checks the typed error, the phase recorded on the aborted
// HAR entry, and that the partial log survives for forensics.
func TestTypedLoadErrors(t *testing.T) {
	_, web := testBrowser(t, 2.2)
	cases := []struct {
		name    string
		faults  simnet.FaultConfig
		dnsFail float64
		want    error
		phase   string
		status  int
	}{
		{
			name:   "timeout",
			faults: simnet.FaultConfig{Rates: simnet.FaultRates{Timeout: 1}},
			want:   ErrTimeout, phase: "wait", status: 0,
		},
		{
			name:   "truncated",
			faults: simnet.FaultConfig{Rates: simnet.FaultRates{Truncate: 1}},
			want:   ErrTruncated, phase: "receive", status: 200,
		},
		{
			name:    "dns",
			dnsFail: 1,
			want:    ErrDNS, phase: "dns", status: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := faultyBrowser(t, web, tc.faults, tc.dnsFail)
			m := web.Sites[1].Landing().Build()
			log, err := b.LoadRevisit(m, 0, 0, 0)
			if err == nil {
				t.Fatal("load must fail with the fault rate pinned to 1")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want errors.Is(%v)", err, tc.want)
			}
			var le *LoadError
			if !errors.As(err, &le) {
				t.Fatalf("error %T does not unwrap to *LoadError", err)
			}
			if le.Phase != tc.phase || le.URL != m.URL {
				t.Errorf("LoadError = %+v, want phase %q url %q", le, tc.phase, m.URL)
			}
			if log == nil || len(log.Entries) != 1 {
				t.Fatalf("want partial log with the aborted root entry, got %+v", log)
			}
			root := log.Entries[0]
			if !root.Failed() || root.Aborted != tc.phase {
				t.Errorf("root entry aborted = %q, want %q", root.Aborted, tc.phase)
			}
			if root.Response.Status != tc.status {
				t.Errorf("root status = %d, want %d", root.Response.Status, tc.status)
			}
			if root.Time <= 0 {
				t.Error("failed fetches must still cost time")
			}
			if tc.name == "truncated" && root.Response.BodySize >= m.Objects[0].Size {
				t.Errorf("truncated body %d not below full size %d", root.Response.BodySize, m.Objects[0].Size)
			}
		})
	}
}

// TestSubresourceFaultsTolerated pins faults to third-party origins only:
// the load must complete (a real browser renders pages with dead
// vendors), failed fetches must carry their phase, and children of dead
// fetches must stay undiscovered.
func TestSubresourceFaultsTolerated(t *testing.T) {
	_, web := testBrowser(t, 2.2)
	m := web.Sites[2].Landing().Build()
	perOrigin := make(map[string]simnet.FaultRates)
	for _, o := range m.Objects {
		if o.ThirdParty {
			perOrigin[o.Scheme+"://"+o.Host] = simnet.FaultRates{Timeout: 1}
		}
	}
	if len(perOrigin) == 0 {
		t.Skip("landing model has no third parties")
	}
	b := faultyBrowser(t, web, simnet.FaultConfig{PerOrigin: perOrigin, Timeout: 10 * time.Second}, 0)
	log, err := b.LoadRevisit(m, 0, 0, 0)
	if err != nil {
		t.Fatalf("load must survive third-party faults: %v", err)
	}
	aborted := 0
	byURL := make(map[string]bool, len(m.Objects))
	for _, e := range log.Entries {
		byURL[e.Request.URL] = true
		if e.Failed() {
			aborted++
			if e.Aborted != "wait" || e.Response.Status != 0 {
				t.Errorf("aborted entry %s: phase=%q status=%d", e.Request.URL, e.Aborted, e.Response.Status)
			}
			if e.Timings.Wait != 10*time.Second {
				t.Errorf("aborted entry wait = %v, want the 10s fault timeout", e.Timings.Wait)
			}
		}
	}
	if aborted == 0 {
		t.Fatal("no aborted entries recorded")
	}
	// An object appears in the log iff it is discoverable: it is the root,
	// it is preloaded (hints fire off the document head, not a parent), or
	// its parent appears AND the parent's fetch succeeded. With Timeout=1
	// every fetch against a faulted origin fails, so "parent succeeded"
	// reduces to "parent not on a faulted origin".
	faulted := func(i int) bool {
		_, f := perOrigin[m.Objects[i].Scheme+"://"+m.Objects[i].Host]
		return f
	}
	discoverable := make([]bool, len(m.Objects))
	discoverable[0] = true
	for _, h := range m.Hints {
		if (h.Type == "preload" || h.Type == "prefetch") && h.ObjectIndex > 0 {
			discoverable[h.ObjectIndex] = true
		}
	}
	// Parents may carry higher indices than their children, so iterate to
	// a fixpoint instead of relying on index order.
	for changed := true; changed; {
		changed = false
		for i, o := range m.Objects {
			if i == 0 || discoverable[i] {
				continue
			}
			if o.Parent >= 0 && discoverable[o.Parent] && !faulted(o.Parent) {
				discoverable[i] = true
				changed = true
			}
		}
	}
	for i, o := range m.Objects {
		if discoverable[i] && !byURL[o.URL] {
			t.Errorf("object %d (%s) discoverable through live ancestors but missing from log", i, o.URL)
		}
		if !discoverable[i] && byURL[o.URL] {
			t.Errorf("object %d (%s) fetched despite a dead ancestor", i, o.URL)
		}
	}
	if len(log.Entries) > len(m.Objects) {
		t.Errorf("entries %d exceed objects %d", len(log.Entries), len(m.Objects))
	}
}

// TestFaultedLoadDeterministic locks reproducibility under injected
// faults: same seed, model, fetch ID, and attempt → identical logs;
// a different attempt redraws the faults (the retry loop's lever).
func TestFaultedLoadDeterministic(t *testing.T) {
	_, web := testBrowser(t, 2.2)
	faults := simnet.FaultConfig{Rates: simnet.FaultRates{Timeout: 0.2, Truncate: 0.1, Loss: 0.2}}
	m := web.Sites[3].Landing().Build()
	load := func(attempt int) *har.Log {
		b := faultyBrowser(t, web, faults, 0)
		log, err := b.LoadRevisit(m, 2, attempt, 0)
		if err != nil {
			var le *LoadError
			if !errors.As(err, &le) {
				t.Fatalf("unexpected error shape: %v", err)
			}
		}
		return log
	}
	l1, l2 := load(0), load(0)
	if len(l1.Entries) != len(l2.Entries) {
		t.Fatalf("entry counts differ: %d vs %d", len(l1.Entries), len(l2.Entries))
	}
	for i := range l1.Entries {
		if l1.Entries[i].Timings != l2.Entries[i].Timings || l1.Entries[i].Aborted != l2.Entries[i].Aborted {
			t.Fatalf("entry %d differs across identical runs", i)
		}
	}
	if l1.Page.Timings != l2.Page.Timings {
		t.Fatalf("page timings differ: %+v vs %+v", l1.Page.Timings, l2.Page.Timings)
	}
}
