package hispar

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/search"
	"repro/internal/toplist"
	"repro/internal/webgen"
)

// buildSequential is Build as a one-by-one walk of the bootstrap: the
// reference the batched, parallel Build must reproduce exactly.
func buildSequential(engine *search.Engine, bootstrap []toplist.Entry, cfg BuildConfig) (*List, BuildStats, error) {
	var stats BuildStats
	startQueries := engine.Queries()
	list := &List{Name: cfg.name(), Week: cfg.Week}
	for _, entry := range bootstrap {
		if len(list.Sets) >= cfg.Sites {
			break
		}
		stats.SitesExamined++
		results, err := engine.Site(entry.Domain, cfg.URLsPerSite)
		if err != nil || len(results) == 0 || len(results) < cfg.MinResults {
			stats.SitesDropped++
			continue
		}
		set := URLSet{Domain: entry.Domain, Rank: entry.Rank, Landing: results[0].URL}
		for _, r := range results[1:] {
			set.Internal = append(set.Internal, r.URL)
		}
		list.Sets = append(list.Sets, set)
	}
	stats.Queries = engine.Queries() - startQueries
	stats.CostUSD = float64(stats.Queries) / 1000 * 5
	if len(list.Sets) < cfg.Sites {
		return list, stats, fmt.Errorf("hispar: bootstrap exhausted with %d/%d sites", len(list.Sets), cfg.Sites)
	}
	return list, stats, nil
}

func TestBuildInvariantAcrossProcs(t *testing.T) {
	u := toplist.NewUniverse(toplist.Config{Seed: 21, Size: 1000})
	entries := u.Top(120)
	seeds := make([]webgen.SiteSeed, len(entries))
	for i, e := range entries {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	web := webgen.Generate(webgen.Config{Seed: 21, Sites: seeds})
	// The last 20 entries have no site in this web: their queries fail.
	partial := webgen.Generate(webgen.Config{Seed: 21, Sites: seeds[:100]})

	cases := []struct {
		name      string
		web       *webgen.Web
		cfg       BuildConfig
		exhausted bool
	}{
		// FewEnglish sites fall below 10 results, so the first batch of
		// 60 leaves gaps that later, smaller batches fill.
		{"dropped", web, BuildConfig{Sites: 60, URLsPerSite: 20, MinResults: 10, Name: "H60"}, false},
		{"exhausted", web, BuildConfig{Sites: 115, URLsPerSite: 20, MinResults: 10, Week: 2}, true},
		{"unknown-sites", partial, BuildConfig{Sites: 110, URLsPerSite: 20, MinResults: 5}, true},
		{"one-site", web, BuildConfig{Sites: 1, URLsPerSite: 5, MinResults: 1}, false},
	}
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, c := range cases {
		refEng := search.New(c.web, search.Config{EnglishOnly: true})
		want, wantStats, wantErr := buildSequential(refEng, entries, c.cfg)
		if (wantErr != nil) != c.exhausted {
			t.Fatalf("%s: reference error = %v, want exhausted = %v", c.name, wantErr, c.exhausted)
		}
		if c.name == "dropped" && wantStats.SitesExamined <= c.cfg.Sites {
			t.Fatalf("%s: reference examined %d sites: the case needs more than one batch", c.name, wantStats.SitesExamined)
		}
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			eng := search.New(c.web, search.Config{EnglishOnly: true})
			got, gotStats, err := Build(eng, entries, c.cfg)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Errorf("%s at GOMAXPROCS %d: error %v, want %v", c.name, procs, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s at GOMAXPROCS %d: list differs from the sequential walk", c.name, procs)
			}
			if gotStats != wantStats {
				t.Errorf("%s at GOMAXPROCS %d: stats %+v, want %+v", c.name, procs, gotStats, wantStats)
			}
			if eng.Queries() != refEng.Queries() {
				t.Errorf("%s at GOMAXPROCS %d: engine metered %d queries, want %d", c.name, procs, eng.Queries(), refEng.Queries())
			}
		}
	}
}
