package depgraph

import (
	"errors"
	"math/rand"
	"slices"
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

func TestDepths(t *testing.T) {
	log := syntheticLog()
	d, err := new(Counter).depths(log)
	if err != nil {
		t.Fatal(err)
	}
	wantDepths := []int{0, 1, 1, 2, 2, 3, 1} // orphan attaches to root
	for i, want := range wantDepths {
		if d[i] != want {
			t.Errorf("entry %d (%s): depth %d, want %d", i, log.Entries[i].Request.URL, d[i], want)
		}
	}
	dc, err := new(Counter).DepthCounts(log, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 3, 2, 1, 0, 0}; !slices.Equal(dc, want) {
		t.Errorf("DepthCounts(5) = %v, want %v", dc, want)
	}
	if dc, _ := new(Counter).DepthCounts(log, 2); !slices.Equal(dc, []int{1, 3, 3}) {
		t.Errorf("DepthCounts(2) = %v, want [1 3 3]", dc)
	}
}

func TestErrors(t *testing.T) {
	if _, err := new(Counter).DepthCounts(&har.Log{}, 5); err == nil {
		t.Error("want error for empty log")
	}
	l := syntheticLog()
	for i := range l.Entries {
		l.Entries[i].Initiator = "https://someone/else"
	}
	if _, err := new(Counter).DepthCounts(l, 5); err == nil {
		t.Error("want error when no root exists")
	}
}

// oracleDepths is the breadth-first search depgraph ran before it kept
// only depths: build the URL-keyed graph with child lists, then BFS
// from the root for shortest-path depths. Entries the search never
// reaches (on or below a parent cycle) are at depth 1.
func oracleDepths(log *har.Log) ([]int, error) {
	n := len(log.Entries)
	if n == 0 {
		return nil, errors.New("empty")
	}
	byURL := make(map[string]int, n)
	for i := range log.Entries {
		if _, dup := byURL[log.Entries[i].Request.URL]; !dup {
			byURL[log.Entries[i].Request.URL] = i
		}
	}
	root := -1
	for i := range log.Entries {
		if log.Entries[i].Initiator == "" {
			root = i
			break
		}
	}
	if root < 0 {
		return nil, errors.New("no root")
	}
	children := make([][]int, n)
	for i := range log.Entries {
		if i == root {
			continue
		}
		p, ok := byURL[log.Entries[i].Initiator]
		if !ok || p == i {
			p = root
		}
		children[p] = append(children[p], i)
	}
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	depth[root] = 0
	queue := []int{root}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, c := range children[p] {
			if depth[c] == -1 {
				depth[c] = depth[p] + 1
				queue = append(queue, c)
			}
		}
	}
	for i := range depth {
		if depth[i] == -1 {
			depth[i] = 1
		}
	}
	return depth, nil
}

// fuzzLog decodes data into a log, two bytes per entry: the first picks
// the entry's URL from a small set (so URLs repeat, and one is empty),
// the second its initiator: empty (a root candidate), one of those
// URLs, or a URL outside the log.
func fuzzLog(data []byte) *har.Log {
	urls := []string{"https://a/", "https://a/1.js", "https://b/2.css", "https://c/3.png", "https://a/4", ""}
	log := &har.Log{}
	for i := 0; i+1 < len(data); i += 2 {
		e := har.Entry{Request: har.Request{URL: urls[int(data[i])%len(urls)]}}
		switch c := int(data[i+1]) % (len(urls) + 2); {
		case c == 0:
		case c <= len(urls):
			e.Initiator = urls[c-1]
		default:
			e.Initiator = "https://outside/x.js"
		}
		log.Entries = append(log.Entries, e)
	}
	return log
}

// checkAgainstOracle holds c's depths and DepthCounts, and a new
// Counter's DepthCounts, to the BFS oracle.
func checkAgainstOracle(t *testing.T, c *Counter, log *har.Log, maxDepth int) {
	t.Helper()
	want, werr := oracleDepths(log)
	got, err := c.depths(log)
	if (err != nil) != (werr != nil) {
		t.Fatalf("error %v, oracle error %v", err, werr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("depths %v, oracle %v", got, want)
	}
	counts, err := c.DepthCounts(log, maxDepth)
	if fresh, ferr := new(Counter).DepthCounts(log, maxDepth); (ferr != nil) != (err != nil) || !slices.Equal(fresh, counts) {
		t.Fatalf("reused Counter counts %v, %v; a new one %v, %v", counts, err, fresh, ferr)
	}
	if werr != nil {
		if err == nil {
			t.Fatalf("DepthCounts = %v, want an error", counts)
		}
		return
	}
	wantCounts := make([]int, maxDepth+1)
	for _, d := range want {
		wantCounts[min(d, maxDepth)]++
	}
	if !slices.Equal(counts, wantCounts) {
		t.Fatalf("DepthCounts(%d) = %v, oracle %v", maxDepth, counts, wantCounts)
	}
}

// TestDepthsMatchOracle holds the parent-chain walk to the BFS oracle
// over random entry lists, all counted on one Counter, so each log
// reuses storage an earlier (larger or smaller) log left.
func TestDepthsMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var c Counter
	for i := 0; i < 3000; i++ {
		data := make([]byte, 2*r.Intn(40))
		r.Read(data)
		checkAgainstOracle(t, &c, fuzzLog(data), r.Intn(7))
	}
}

// FuzzDepthCounts holds DepthCounts and the per-entry depths to the BFS
// oracle over arbitrary entry lists.
func FuzzDepthCounts(f *testing.F) {
	f.Add([]byte{}, uint8(5))                             // empty log
	f.Add([]byte{0, 1, 1, 2, 1, 3}, uint8(5))             // no root
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3}, uint8(5))       // a chain
	f.Add([]byte{0, 0, 1, 1, 1, 3, 2, 2}, uint8(5))       // a duplicate URL
	f.Add([]byte{0, 0, 1, 7, 2, 7}, uint8(5))             // unknown initiators
	f.Add([]byte{0, 0, 1, 2, 2, 3}, uint8(5))             // self-initiators
	f.Add([]byte{0, 0, 1, 3, 2, 2, 3, 3}, uint8(5))       // a parent cycle, with a child
	f.Add([]byte{5, 0, 1, 0, 2, 6}, uint8(5))             // an empty URL
	f.Add([]byte{1, 1, 2, 0, 0, 2, 3, 1, 4, 4}, uint8(1)) // root not first, max 1
	f.Fuzz(func(t *testing.T, data []byte, maxDepth uint8) {
		// A Counter that has counted the log's reversal first.
		var c Counter
		rev := fuzzLog(data)
		slices.Reverse(rev.Entries)
		c.DepthCounts(rev, 5)
		checkAgainstOracle(t, &c, fuzzLog(data), int(maxDepth%8))
	})
}

// simWorld returns a small web and a browser that loads its pages.
func simWorld(t *testing.T) (*webgen.Web, *browser.Browser) {
	t.Helper()
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
	return web, b
}

// TestAgreesWithSimulatedLoads cross-validates each entry's
// initiator-based depth against the generator's ground-truth depth
// carried in the HAR _depth extension.
func TestAgreesWithSimulatedLoads(t *testing.T) {
	web, b := simWorld(t)
	for _, s := range web.Sites {
		for _, page := range []*webgen.Page{s.Landing(), s.PageAt(1)} {
			m := page.Build()
			log, err := b.LoadRevisit(m, 0, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			d, err := new(Counter).depths(log)
			if err != nil {
				t.Fatal(err)
			}
			for i := range d {
				if d[i] != log.Entries[i].Depth {
					t.Fatalf("%s: entry %d initiator-depth %d != ground truth %d",
						m.URL, i, d[i], log.Entries[i].Depth)
				}
			}
		}
	}
}

// TestDepthCountsAllocations bounds a new Counter's DepthCounts to its
// result and one allocation for the URL index, parents and depths, on a
// simulated page load's log, and a Counter that has counted the log
// before to the result alone.
func TestDepthCountsAllocations(t *testing.T) {
	web, b := simWorld(t)
	m := web.Sites[0].Landing().Build()
	log, err := b.LoadRevisit(m, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() { new(Counter).DepthCounts(log, 5) }); a > 2 {
		t.Fatalf("a new Counter's DepthCounts over %d entries allocates %.0f times, want at most 2", len(log.Entries), a)
	}
	var c Counter
	if a := testing.AllocsPerRun(50, func() { c.DepthCounts(log, 5) }); a > 1 {
		t.Fatalf("a reused Counter's DepthCounts over %d entries allocates %.0f times, want at most 1", len(log.Entries), a)
	}
}
