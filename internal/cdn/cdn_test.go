package cdn

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
)

func TestProvidersWellFormed(t *testing.T) {
	ps := Providers()
	if len(ps) < 40 {
		t.Fatalf("providers = %d, want >= 40 (the paper saw 40+ CDNs)", len(ps))
	}
	seen := map[string]bool{}
	xcache := 0
	for _, p := range ps {
		if p.Name == "" || p.HostSuffix == "" || p.CNAMESuffix == "" || p.ServerHeader == "" {
			t.Errorf("incomplete provider %+v", p)
		}
		if seen[p.Name] {
			t.Errorf("duplicate provider %s", p.Name)
		}
		seen[p.Name] = true
		if p.XCache {
			xcache++
		}
	}
	if xcache == len(ps) || xcache == 0 {
		t.Errorf("X-Cache support should be partial (paper: at least two major CDNs expose it): %d/%d", xcache, len(ps))
	}
}

func TestPopularityWarmthShape(t *testing.T) {
	w := PopularityWarmth(2, 0.97)
	if w(0) != 0 {
		t.Error("zero popularity must be cold")
	}
	if !(w(0.1) < w(0.5) && w(0.5) < w(1)) {
		t.Error("warmth must be monotone in popularity")
	}
	if w(1000) > 0.97 {
		t.Error("warmth must saturate at the ceiling")
	}
	// Bad ceiling falls back.
	w2 := PopularityWarmth(2, 5)
	if w2(1000) > 0.99 {
		t.Error("invalid ceiling not defaulted")
	}
}

func TestEdgeLRURealHits(t *testing.T) {
	e := NewEdge(Provider{Name: "t", XCache: true}, 2, nil, 1)
	if r := e.Serve("a", 0); r.Hit {
		t.Error("cold edge must miss")
	}
	if r := e.Serve("a", 0); !r.Hit {
		t.Error("second request must hit the LRU")
	}
	// Capacity 2: inserting c evicts the LRU victim (b), not a (recently used).
	e.Serve("b", 0)
	e.Serve("a", 0)
	e.Serve("c", 0)
	if r := e.Serve("a", 0); !r.Hit {
		t.Error("a should still be cached (recently used)")
	}
	if r := e.Serve("b", 0); r.Hit {
		t.Error("b should have been evicted")
	}
	if e.Len() > 2 {
		t.Errorf("edge over capacity: %d", e.Len())
	}
}

func TestEdgeWarmth(t *testing.T) {
	hits := 0
	const n = 500
	for i := 0; i < n; i++ {
		e := NewEdge(Provider{Name: "t"}, 10, PopularityWarmth(50, 0.97), int64(i))
		if r := e.Serve(fmt.Sprintf("obj%d", i), 1.0); r.Hit {
			hits++
		}
	}
	if hits < n/2 {
		t.Errorf("hot objects warm-hit only %d/%d", hits, n)
	}
}

func TestXCacheHeader(t *testing.T) {
	e := NewEdge(Provider{Name: "t", XCache: true}, 10, nil, 1)
	if got := e.XCacheHeader(ServeResult{Hit: true}); got != "HIT" {
		t.Errorf("XCacheHeader hit = %q", got)
	}
	if got := e.XCacheHeader(ServeResult{}); got != "MISS" {
		t.Errorf("XCacheHeader miss = %q", got)
	}
	e2 := NewEdge(Provider{Name: "t"}, 10, nil, 1)
	if got := e2.XCacheHeader(ServeResult{Hit: true}); got != "" {
		t.Errorf("provider without X-Cache emitted %q", got)
	}
}

func TestNetworkStats(t *testing.T) {
	n := NewNetwork(16, nil, 9)
	e, err := n.Edge("fastcache")
	if err != nil {
		t.Fatal(err)
	}
	e.Serve("x", 0)
	e.Serve("x", 0)
	h, m := n.Stats()
	if h != 1 || m != 1 {
		t.Errorf("stats = %d/%d, want 1/1", h, m)
	}
	if _, err := n.Edge("unknown"); err == nil {
		t.Error("unknown edge should error")
	}
}

// TestLazyEdgeMatchesEagerEdge: an edge built on first use draws exactly
// the stream an edge built up front with the roster seed would draw.
func TestLazyEdgeMatchesEagerEdge(t *testing.T) {
	const seed, capacity = 42, 8
	warm := PopularityWarmth(2.2, 0.97)
	n := NewNetwork(capacity, warm, seed)
	for i, p := range Providers() {
		lazy, err := n.Edge(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		eager := NewEdge(p, capacity, warm, seed+int64(i)*7919)
		for k := 0; k < 40; k++ {
			key := fmt.Sprintf("obj%d", k%13) // repeats exercise the LRU
			pop := float64(k%7) / 7
			if got, want := lazy.Serve(key, pop), eager.Serve(key, pop); got != want {
				t.Fatalf("%s request %d: lazy %+v, eager %+v", p.Name, k, got, want)
			}
		}
	}
}

func TestUntouchedEdgesAddNothing(t *testing.T) {
	n := NewNetwork(16, PopularityWarmth(50, 0.97), 3)
	if h, m := n.Stats(); h != 0 || m != 0 {
		t.Fatalf("fresh network stats = %d/%d, want 0/0", h, m)
	}
	e, _ := n.Edge("quantumcdn")
	for k := 0; k < 10; k++ {
		e.Serve(fmt.Sprint(k%4), 0.5)
	}
	eh, em := e.Stats()
	if h, m := n.Stats(); h != eh || m != em || h+m != 10 {
		t.Errorf("network stats = %d/%d, the one touched edge has %d/%d", h, m, eh, em)
	}
}

// TestConcurrentEdgeBuildsOnce: concurrent first touches of a provider
// all get the same edge (run under -race).
func TestConcurrentEdgeBuildsOnce(t *testing.T) {
	n := NewNetwork(16, nil, 5)
	ps := Providers()
	got := make([][]*Edge, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range ps {
				p := ps[(k+g*5)%len(ps)]
				e, err := n.Edge(p.Name)
				if err != nil {
					t.Error(err)
					return
				}
				e.Serve("x", 0)
				got[g] = append(got[g], e)
			}
			n.Stats()
		}(g)
	}
	wg.Wait()
	byName := map[string]*Edge{}
	for _, es := range got {
		for _, e := range es {
			if prev, ok := byName[e.Provider.Name]; ok && prev != e {
				t.Fatalf("provider %s built twice", e.Provider.Name)
			}
			byName[e.Provider.Name] = e
		}
	}
	if len(byName) != len(ps) {
		t.Errorf("edges for %d providers, want %d", len(byName), len(ps))
	}
	if h, m := n.Stats(); h+m != len(got)*len(ps) {
		t.Errorf("stats = %d/%d, want %d requests", h, m, len(got)*len(ps))
	}
}

// TestNetworkResetMatchesNew drives one network through many Resets and
// holds every reset state to a NewNetwork with the same seed: the same
// answers, think times and stats over requests that hit, miss and evict,
// on edges used before the Reset, left idle by it, and grown past the
// storage an idle edge keeps.
func TestNetworkResetMatchesNew(t *testing.T) {
	ps := Providers()
	for _, capacity := range []int{6, 1 << 14} {
		warmth := PopularityWarmth(2.2, 0.97)
		reused := NewNetwork(capacity, warmth, 0)
		r := rand.New(rand.NewSource(int64(capacity)))
		dropped := 0
		for load := 0; load < 60; load++ {
			seed := r.Int63()
			for i, e := range reused.edges {
				if e != nil && !reused.current[i] && cap(e.nodes) > maxKeptKeys {
					dropped++
				}
			}
			reused.Reset(seed)
			fresh := NewNetwork(capacity, warmth, seed)
			// Each load has a hot provider among four and sends the
			// rest of its requests to four others: edges are reused,
			// left idle and reused again, and a hot edge often holds
			// more keys than an idle one keeps.
			hot := r.Intn(4)
			keys := 1 + r.Intn(4*maxKeptKeys)
			for k := 0; k < keys; k++ {
				p := ps[hot].Name
				if r.Intn(4) == 0 {
					p = ps[4+r.Intn(4)].Name
				}
				key := "https://a.example/" + strconv.Itoa(r.Intn(keys))
				pop := r.Float64()
				a, _ := reused.Edge(p)
				b, _ := fresh.Edge(p)
				if ra, rb := a.Serve(key, pop), b.Serve(key, pop); ra != rb {
					t.Fatalf("capacity %d load %d request %d: reset network served %+v, new one %+v", capacity, load, k, ra, rb)
				}
				if a.Len() != b.Len() {
					t.Fatalf("capacity %d load %d: reset edge holds %d keys, new one %d", capacity, load, a.Len(), b.Len())
				}
			}
			ha, ma := reused.Stats()
			hb, mb := fresh.Stats()
			if ha != hb || ma != mb {
				t.Fatalf("capacity %d load %d: stats %d/%d, new network %d/%d", capacity, load, ha, ma, hb, mb)
			}
		}
		if capacity > maxKeptKeys && dropped == 0 {
			t.Fatalf("capacity %d: no idle edge held more than %d keys at a Reset", capacity, maxKeptKeys)
		}
	}
}

// TestResetNetworkAllocations checks a reset network serves a load's
// requests without building edges or a cache entry per miss.
func TestResetNetworkAllocations(t *testing.T) {
	n := NewNetwork(1<<14, PopularityWarmth(2.2, 0.97), 0)
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = "https://a.example/" + strconv.Itoa(i)
	}
	seed := int64(0)
	load := func() {
		seed++
		n.Reset(seed)
		for i, k := range keys {
			e, _ := n.Edge(rosterNames[i%3])
			e.Serve(k, 0.3)
		}
	}
	load()
	if a := testing.AllocsPerRun(50, load); a > 0 {
		t.Fatalf("a load on a reset network allocates %.1f times", a)
	}
}
