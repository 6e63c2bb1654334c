package depgraph

import (
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/cdn"
	"repro/internal/dnssim"
	"repro/internal/har"
	"repro/internal/toplist"
	"repro/internal/webgen"
)

func syntheticLog() *har.Log {
	nav := time.Date(2020, 3, 12, 9, 0, 0, 0, time.UTC)
	mk := func(url, initiator string, startMS, durMS int, size int64) har.Entry {
		return har.Entry{
			StartedAt: nav.Add(time.Duration(startMS) * time.Millisecond),
			Time:      time.Duration(durMS) * time.Millisecond,
			Request:   har.Request{Method: "GET", URL: url},
			Response:  har.Response{Status: 200, BodySize: size},
			Initiator: initiator,
		}
	}
	return &har.Log{
		Page: har.Page{URL: "https://a/", NavigationStart: nav},
		Entries: []har.Entry{
			mk("https://a/", "", 0, 100, 1000),
			mk("https://a/app.js", "https://a/", 110, 50, 200),
			mk("https://a/style.css", "https://a/", 110, 40, 100),
			mk("https://a/data.json", "https://a/app.js", 170, 30, 50),
			mk("https://a/bg.png", "https://a/style.css", 160, 80, 400),
			mk("https://a/deep.js", "https://a/data.json", 210, 90, 60),
			mk("https://x/orphan.gif", "https://unknown/origin.js", 120, 10, 10),
		},
	}
}

func TestFromHARDepths(t *testing.T) {
	g, err := FromHAR(syntheticLog())
	if err != nil {
		t.Fatal(err)
	}
	wantDepths := []int{0, 1, 1, 2, 2, 3, 1} // orphan attaches to root
	for i, want := range wantDepths {
		if g.Nodes[i].Depth != want {
			t.Errorf("node %d (%s): depth %d, want %d", i, g.Nodes[i].URL, g.Nodes[i].Depth, want)
		}
	}
	dc := g.DepthCounts(5)
	if dc[0] != 1 || dc[1] != 3 || dc[2] != 2 || dc[3] != 1 {
		t.Errorf("DepthCounts = %v", dc)
	}
	if g.MaxDepth() != 3 {
		t.Errorf("MaxDepth = %d", g.MaxDepth())
	}
}

func TestCriticalPath(t *testing.T) {
	g, err := FromHAR(syntheticLog())
	if err != nil {
		t.Fatal(err)
	}
	path, end := g.CriticalPath()
	// Last finishing object is deep.js (ends at 300ms); chain is
	// root -> app.js -> data.json -> deep.js.
	if end != 300*time.Millisecond {
		t.Errorf("critical end = %v", end)
	}
	want := []string{"https://a/", "https://a/app.js", "https://a/data.json", "https://a/deep.js"}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i, n := range path {
		if g.Nodes[n].URL != want[i] {
			t.Errorf("path[%d] = %s, want %s", i, g.Nodes[n].URL, want[i])
		}
	}
}

func TestErrors(t *testing.T) {
	if _, err := FromHAR(&har.Log{}); err == nil {
		t.Error("want error for empty log")
	}
	l := syntheticLog()
	for i := range l.Entries {
		l.Entries[i].Initiator = "https://someone/else"
	}
	if _, err := FromHAR(l); err == nil {
		t.Error("want error when no root exists")
	}
}

// TestAgreesWithSimulatedLoads cross-validates the initiator-based graph
// against the generator's ground-truth depths carried in the HAR _depth
// extension.
func TestAgreesWithSimulatedLoads(t *testing.T) {
	u := toplist.NewUniverse(toplist.Config{Seed: 81, Size: 400})
	entries := u.Top(8)
	seeds := make([]webgen.SiteSeed, len(entries))
	for i, e := range entries {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	web := webgen.Generate(webgen.Config{Seed: 81, Sites: seeds})
	resolver := dnssim.NewResolver(dnssim.ResolverConfig{Name: "isp", Seed: 81}, web.Authority(), nil)
	b, err := browser.New(browser.Config{
		Seed:     81,
		Resolver: resolver,
		CDNFactory: func() *cdn.Network {
			return cdn.NewNetwork(1<<14, cdn.PopularityWarmth(2.2, 0.97), 81)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range web.Sites {
		for _, page := range []*webgen.Page{s.Landing(), s.PageAt(1)} {
			m := page.Build()
			log, err := b.Load(m, 0)
			if err != nil {
				t.Fatal(err)
			}
			g, err := FromHAR(log)
			if err != nil {
				t.Fatal(err)
			}
			for i := range g.Nodes {
				if g.Nodes[i].Depth != log.Entries[i].Depth {
					t.Fatalf("%s: node %d initiator-depth %d != ground truth %d",
						m.URL, i, g.Nodes[i].Depth, log.Entries[i].Depth)
				}
			}
		}
	}
}
