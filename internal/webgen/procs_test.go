package webgen

import (
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/simnet"
)

// siteShape is everything newSite draws for a site.
type siteShape struct {
	Domain   string
	Rank     int
	Category Category
	Origin   simnet.Loc
	Profile  Profile
	seed     int64
	poolSize int
}

func shapeOf(s *Site) siteShape {
	return siteShape{s.Domain, s.Rank, s.Category, s.Origin, s.Profile, s.seed, s.poolSize}
}

func TestGenerateInvariantAcrossProcs(t *testing.T) {
	var seeds []SiteSeed
	for i := 1; i <= 60; i++ {
		seeds = append(seeds, SiteSeed{Domain: "site" + strconv.Itoa(i) + ".com", Rank: i * 7})
	}
	// One domain twice, differing in case and rank: its lookup must
	// resolve to the later site, as a sequential registration does.
	seeds[41] = SiteSeed{Domain: "SITE5.com", Rank: 9000, Category: CatNews}
	const dupFirst, dupLast = 4, 41

	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		w := Generate(Config{Seed: 5, Week: 3, Sites: seeds})
		if len(w.Sites) != len(seeds) {
			t.Fatalf("GOMAXPROCS %d: %d sites, want %d", procs, len(w.Sites), len(seeds))
		}
		for i, seed := range seeds {
			if got, want := shapeOf(w.Sites[i]), shapeOf(newSite(w, seed)); !reflect.DeepEqual(got, want) {
				t.Fatalf("GOMAXPROCS %d: site %d = %+v, want %+v", procs, i, got, want)
			}
			if w.Sites[i].landing.Site != w.Sites[i] {
				t.Fatalf("GOMAXPROCS %d: site %d's landing page belongs to another site", procs, i)
			}
		}
		if len(w.siteByDomain) != len(seeds)-1 {
			t.Errorf("GOMAXPROCS %d: %d domains registered, want %d", procs, len(w.siteByDomain), len(seeds)-1)
		}
		for i, s := range w.Sites {
			if i == dupFirst {
				continue
			}
			if got, ok := w.SiteByDomain(s.Domain); !ok || got != s {
				t.Errorf("GOMAXPROCS %d: SiteByDomain(%q) is not site %d", procs, s.Domain, i)
			}
		}
		if got, _ := w.SiteByDomain("site5.com"); got != w.Sites[dupLast] || got.Rank != 9000 {
			t.Errorf("GOMAXPROCS %d: the twice-listed domain resolves to rank %d, want the later site (rank 9000)", procs, got.Rank)
		}
	}
}
