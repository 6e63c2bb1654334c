package browser

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/cdn"
	"repro/internal/dnssim"
	"repro/internal/toplist"
	"repro/internal/webgen"
)

func testBrowser(t *testing.T, warmRate float64) (*Browser, *webgen.Web) {
	t.Helper()
	u := toplist.NewUniverse(toplist.Config{Seed: 51, Size: 500})
	entries := u.Top(12)
	seeds := make([]webgen.SiteSeed, len(entries))
	for i, e := range entries {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	web := webgen.Generate(webgen.Config{Seed: 51, Sites: seeds})
	resolver := dnssim.NewResolver(dnssim.ResolverConfig{
		Name: "isp", Seed: 51, WarmQueryRate: 0.8,
	}, web.Authority(), nil)
	b, err := New(Config{
		Seed:       51,
		Resolver:   resolver,
		CDNFactory: resetNetwork(warmRate),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b, web
}

// resetNetwork returns a CDN factory that hands every load one network,
// reset to the state cdn.NewNetwork builds, as the study's factory does.
func resetNetwork(warmRate float64) func() *cdn.Network {
	n := cdn.NewNetwork(1<<14, cdn.PopularityWarmth(warmRate, 0.97), 51)
	return func() *cdn.Network {
		n.Reset(51)
		return n
	}
}

func TestLoadProducesCompleteHAR(t *testing.T) {
	b, web := testBrowser(t, 2.2)
	m := web.Sites[0].Landing().Build()
	log, err := b.LoadRevisit(m, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Entries) != len(m.Objects) {
		t.Fatalf("entries = %d, objects = %d", len(log.Entries), len(m.Objects))
	}
	if log.Page.URL != m.URL {
		t.Errorf("page URL = %q", log.Page.URL)
	}
	for i, e := range log.Entries {
		if e.Request.URL != m.Objects[i].URL {
			t.Fatalf("entry %d URL mismatch", i)
		}
		if e.Response.BodySize != m.Objects[i].Size {
			t.Fatalf("entry %d size mismatch", i)
		}
		if e.Timings.Wait <= 0 || e.Timings.Receive < 0 || e.Timings.Send <= 0 {
			t.Fatalf("entry %d has bad timings %+v", i, e.Timings)
		}
		if e.Depth != m.Objects[i].Depth {
			t.Fatalf("entry %d depth mismatch", i)
		}
		if e.Response.HeaderValue("Content-Type") == "" {
			t.Fatalf("entry %d missing Content-Type", i)
		}
	}
	// The root entry must pay DNS + connect (+TLS on https).
	root := log.Entries[0]
	if root.Timings.DNS <= 0 || root.Timings.Connect <= 0 {
		t.Errorf("root entry should open a fresh connection: %+v", root.Timings)
	}
	if m.Objects[0].Scheme == "https" && root.Timings.SSL <= 0 {
		t.Error("https root entry missing TLS handshake")
	}
}

func TestPageTimingOrdering(t *testing.T) {
	b, web := testBrowser(t, 2.2)
	for _, s := range web.Sites[:4] {
		m := s.PageAt(1).Build()
		log, err := b.LoadRevisit(m, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		pt := log.Page.Timings
		if pt.FirstPaint <= 0 {
			t.Fatalf("%s: first paint %v", m.URL, pt.FirstPaint)
		}
		if pt.OnLoad < pt.FirstPaint {
			t.Fatalf("%s: onLoad %v < firstPaint %v", m.URL, pt.OnLoad, pt.FirstPaint)
		}
		if pt.SpeedIndex < pt.FirstPaint || pt.SpeedIndex > pt.OnLoad {
			t.Fatalf("%s: SI %v outside [FP, onLoad]", m.URL, pt.SpeedIndex)
		}
		// Every blocking object must finish before first paint.
		for i, o := range m.Objects {
			if o.RenderBlocking {
				end := log.Entries[i].StartedAt.Add(log.Entries[i].Time).Sub(log.Page.NavigationStart)
				if end > pt.FirstPaint {
					t.Fatalf("%s: blocking object %d ends %v after FP %v", m.URL, i, end, pt.FirstPaint)
				}
			}
		}
	}
}

func TestDependencyOrdering(t *testing.T) {
	b, web := testBrowser(t, 2.2)
	m := web.Sites[1].Landing().Build()
	log, err := b.LoadRevisit(m, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	nav := log.Page.NavigationStart
	for i, o := range m.Objects {
		if i == 0 || o.Preloaded {
			continue
		}
		parentEnd := log.Entries[o.Parent].StartedAt.Add(log.Entries[o.Parent].Time)
		childStart := log.Entries[i].StartedAt
		if childStart.Before(parentEnd) {
			t.Fatalf("object %d (depth %d) started %v before its initiator finished %v",
				i, o.Depth, childStart.Sub(nav), parentEnd.Sub(nav))
		}
		if log.Entries[i].Initiator != m.Objects[o.Parent].URL {
			t.Fatalf("object %d initiator mismatch", i)
		}
	}
}

func TestConnectionReuse(t *testing.T) {
	b, web := testBrowser(t, 2.2)
	m := web.Sites[0].Landing().Build()
	log, err := b.LoadRevisit(m, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	perOrigin := map[string]int{}
	reused := 0
	for i, e := range log.Entries {
		origin := m.Objects[i].Scheme + "://" + m.Objects[i].Host
		if e.Timings.NewConnection() {
			perOrigin[origin]++
		} else {
			reused++
		}
	}
	if reused == 0 {
		t.Error("no connection reuse on a full page load")
	}
	for origin, n := range perOrigin {
		if n > 6 {
			t.Errorf("%s: %d connections, cap is 6", origin, n)
		}
	}
}

func TestRepeatedFetchesJitterButSameStructure(t *testing.T) {
	b, web := testBrowser(t, 2.2)
	m := web.Sites[2].Landing().Build()
	l0, err := b.LoadRevisit(m, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := b.LoadRevisit(m, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l0.TotalBytes() != l1.TotalBytes() || l0.ObjectCount() != l1.ObjectCount() {
		t.Error("structure changed across fetches")
	}
	if l0.Page.Timings.FirstPaint == l1.Page.Timings.FirstPaint {
		t.Error("timings identical across fetches; jitter missing")
	}
}

func TestCDNWarmthSpeedsUpLoads(t *testing.T) {
	cold, web := testBrowser(t, 0.0001)
	hot, _ := testBrowser(t, 50)
	var coldPLT, hotPLT time.Duration
	for _, s := range web.Sites[:6] {
		m := s.Landing().Build()
		lc, err := cold.LoadRevisit(m, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		lh, err := hot.LoadRevisit(m, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		coldPLT += lc.Page.Timings.OnLoad
		hotPLT += lh.Page.Timings.OnLoad
	}
	if hotPLT >= coldPLT {
		t.Errorf("hot edges (%v) not faster than cold (%v)", hotPLT, coldPLT)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("want error without resolver")
	}
	resolver := dnssim.NewResolver(dnssim.ResolverConfig{Name: "x", Seed: 1}, &dnssim.SyntheticAuthority{}, nil)
	if _, err := New(Config{Resolver: resolver}); err == nil {
		t.Error("want error without CDN factory")
	}
}

func TestEmptyModelRejected(t *testing.T) {
	b, _ := testBrowser(t, 1)
	if _, err := b.LoadRevisit(&webgen.PageModel{URL: "https://x/"}, 0, 0, 0); err == nil {
		t.Error("want error for empty model")
	}
}

// TestChildIndexMatchesScan holds childIndex to the scan LoadRevisit
// made before it: every object whose Parent is p, in ascending index
// order, on random trees with the root's -1 and out-of-range parents,
// and on one scratch reused across sizes.
func TestChildIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var sc loadScratch
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(40)
		objs := make([]*webgen.Object, n)
		for i := range objs {
			objs[i] = &webgen.Object{Parent: rng.Intn(n+3) - 2}
		}
		if n > 0 {
			objs[0].Parent = -1
		}
		first, kids := sc.childIndex(objs)
		for p := 0; p < n; p++ {
			var want []int32
			for ci, o := range objs {
				if o.Parent == p {
					want = append(want, int32(ci))
				}
			}
			if got := kids[first[p]:first[p+1]]; !slices.Equal(got, want) {
				t.Fatalf("trial %d: children of %d = %v, scan %v", trial, p, got, want)
			}
		}
	}
}
