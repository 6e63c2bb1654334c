package dnssim

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/vclock"
)

func newTestResolver(cfg ResolverConfig, clock *vclock.Clock) *Resolver {
	auth := &SyntheticAuthority{DefaultTTL: time.Hour}
	var now func() time.Time
	if clock != nil {
		now = clock.Now
	}
	return NewResolver(cfg, auth, now)
}

func TestResolveCaches(t *testing.T) {
	r := newTestResolver(ResolverConfig{Name: "t", Seed: 1}, nil)
	first, err := r.Resolve("www.example.com", 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first query must miss with zero warmth")
	}
	second, err := r.Resolve("www.example.com", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("second query must hit")
	}
	if second.Latency >= first.Latency {
		t.Errorf("cached latency %v not below miss latency %v", second.Latency, first.Latency)
	}
	if first.Record.Addr != second.Record.Addr || first.Record.Addr == "" {
		t.Errorf("addresses differ: %q vs %q", first.Record.Addr, second.Record.Addr)
	}
}

func TestTTLExpiry(t *testing.T) {
	clock := vclock.New(time.Unix(0, 0).UTC())
	auth := AuthorityFunc(func(host string) (Record, bool) {
		return Record{Host: host, Addr: "198.51.100.1", TTL: 30 * time.Second}, true
	})
	r := NewResolver(ResolverConfig{Name: "t", Seed: 2}, auth, clock.Now)
	if _, err := r.Resolve("short.example", 0); err != nil {
		t.Fatal(err)
	}
	res, _ := r.Resolve("short.example", 0)
	if !res.CacheHit {
		t.Fatal("should hit within TTL")
	}
	clock.Advance(31 * time.Second)
	res, _ = r.Resolve("short.example", 0)
	if res.CacheHit {
		t.Error("should miss after TTL expiry")
	}
}

func TestWarmthIncreasesWithPopularity(t *testing.T) {
	hot, cold := 0, 0
	const n = 400
	for i := 0; i < n; i++ {
		r := newTestResolver(ResolverConfig{Name: "t", Seed: int64(i), WarmQueryRate: 1}, nil)
		if res, _ := r.Resolve("hot.example", 1.0); res.CacheHit {
			hot++
		}
		if res, _ := r.Resolve("cold.example", 0.0001); res.CacheHit {
			cold++
		}
	}
	if hot <= cold {
		t.Errorf("hot=%d cold=%d: warmth must grow with popularity", hot, cold)
	}
	if cold > n/4 {
		t.Errorf("cold hits too frequent: %d/%d", cold, n)
	}
}

func TestFragmentationLowersHitRate(t *testing.T) {
	hosts := make([]string, 600)
	for i := range hosts {
		hosts[i] = DomainNameForTest(i)
	}
	pop := ZipfPopularity(hosts, 0.9)
	mono := newTestResolver(ResolverConfig{Name: "mono", Seed: 7, WarmQueryRate: 1.2}, nil)
	frag := newTestResolver(ResolverConfig{Name: "frag", Seed: 7, WarmQueryRate: 1.2, Shards: 8}, nil)
	m := HitRateProbe(mono, hosts, pop, 25*time.Millisecond)
	f := HitRateProbe(frag, hosts, pop, 25*time.Millisecond)
	if f >= m {
		t.Errorf("fragmented hit rate %.2f should be below monolithic %.2f", f, m)
	}
}

// DomainNameForTest derives a distinct synthetic host.
func DomainNameForTest(i int) string {
	b := []byte("host-aaaa.example")
	for j := 5; j < 9; j++ {
		b[j] = byte('a' + (i>>(4*(j-5)))%16)
	}
	return string(b)
}

func TestNXDomain(t *testing.T) {
	auth := AuthorityFunc(func(host string) (Record, bool) { return Record{}, false })
	r := NewResolver(ResolverConfig{Name: "t", Seed: 3}, auth, nil)
	if _, err := r.Resolve("nope.example", 0); err == nil {
		t.Error("want NXDOMAIN error")
	}
}

func TestFlushAndSize(t *testing.T) {
	r := newTestResolver(ResolverConfig{Name: "t", Seed: 4}, nil)
	hosts := []string{"a.x", "b.x", "c.x"}
	cacheHit := func(h string) bool {
		t.Helper()
		res, err := r.Resolve(h, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.CacheHit
	}
	for _, h := range hosts {
		cacheHit(h)
	}
	for _, h := range hosts {
		if !cacheHit(h) {
			t.Errorf("%s: repeat lookup missed the cache", h)
		}
	}
	r.Flush()
	for _, h := range hosts {
		if cacheHit(h) {
			t.Errorf("%s: lookup after Flush hit the cache", h)
		}
	}
}

func TestSyntheticAddrStable(t *testing.T) {
	a := SyntheticAddr("www.example.com")
	b := SyntheticAddr("www.example.com")
	c := SyntheticAddr("other.example.com")
	if a != b {
		t.Error("address not stable")
	}
	if a == c {
		t.Error("different hosts share an address (likely but not for these)")
	}
}

func TestHitRateProbeSecondQueryAlwaysWarm(t *testing.T) {
	// With zero warmth every first query misses; the probe should
	// report ~0 hits.
	r := newTestResolver(ResolverConfig{Name: "t", Seed: 5}, nil)
	hosts := []string{"a.example", "b.example", "c.example"}
	rate := HitRateProbe(r, hosts, nil, 25*time.Millisecond)
	if rate != 0 {
		t.Errorf("probe rate = %.2f, want 0 with cold cache", rate)
	}
}

func TestInjectedFailuresAreTransientAndUncached(t *testing.T) {
	r := newTestResolver(ResolverConfig{Name: "t", Seed: 3, FailProb: 0.5}, nil)
	fails := 0
	const n = 400
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("h%d.example", i)
		res, err := r.Resolve(host, 0)
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected error class: %v", err)
			}
			if res.Latency <= 0 {
				t.Fatal("failed query must still cost time")
			}
			fails++
		}
	}
	if fails < n/5 || fails > 4*n/5 {
		t.Errorf("injected failure count %d/%d far from 50%%", fails, n)
	}
	// A host that eventually resolves is cached; cached answers never fail.
	var host string
	for i := 0; ; i++ {
		host = "stable.example"
		if _, err := r.Resolve(host, 0); err == nil {
			break
		}
		if i > 100 {
			t.Fatal("retry never succeeded at FailProb 0.5")
		}
	}
	for i := 0; i < 20; i++ {
		res, err := r.Resolve(host, 0)
		if err != nil || !res.CacheHit {
			t.Fatalf("cached answer failed: hit=%v err=%v", res.CacheHit, err)
		}
	}
}

func TestZeroFailProbMatchesSeedLatencies(t *testing.T) {
	a := newTestResolver(ResolverConfig{Name: "a", Seed: 11}, nil)
	b := newTestResolver(ResolverConfig{Name: "b", Seed: 11, FailProb: 0}, nil)
	for i := 0; i < 50; i++ {
		host := "h" + string(rune('a'+i%26)) + ".example"
		ra, ea := a.Resolve(host, 0.4)
		rb, eb := b.Resolve(host, 0.4)
		if (ea == nil) != (eb == nil) || ra.Latency != rb.Latency || ra.CacheHit != rb.CacheHit {
			t.Fatalf("query %d diverged: %+v/%v vs %+v/%v", i, ra, ea, rb, eb)
		}
	}
}
