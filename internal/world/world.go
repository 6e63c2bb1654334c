// Package world builds the paper's §3 artifact at one (seed, week): the
// Alexa-style top-list universe stepped to the snapshot day, the
// bootstrap walked from its top, the synthetic web those sites live on,
// the metered search engine over that web, and the Hispar list
// discovered through it. Every command, example and experiment that
// needs a list gets it here, so they all mean the same thing by "the
// world at seed s, week w".
package world

import (
	"fmt"

	"repro/internal/hispar"
	"repro/internal/search"
	"repro/internal/toplist"
	"repro/internal/webgen"
)

// The bootstrap walks 40% past the list size (7/5 × Sites) so that
// sites dropped for too few English search results do not exhaust it.
const bootstrapNum, bootstrapDen = 7, 5

// Config names one world.
type Config struct {
	// Seed drives the universe, the web and everything derived from
	// them.
	Seed int64
	// WebSeed seeds the web instead of Seed when nonzero: an independent
	// web over the same top list.
	WebSeed int64
	// Week is the snapshot week: the universe is stepped Week×7 days and
	// the web and list are stamped with it.
	Week int
	// Sites, URLsPerSite and MinResults shape the list (hispar.BuildConfig).
	Sites, URLsPerSite, MinResults int
	// Universe is the top-list universe size; 0 means max(4000, 3×Sites).
	Universe int
	// Name labels the list ("" = hispar's H<n> default).
	Name string
	// Extra sites are generated into the web after the bootstrap. They
	// are searchable but never enter the list.
	Extra []webgen.SiteSeed
}

// check reports the first field outside its range. No field falls back
// to a default, so a bad value fails here rather than shaping the list.
func (c Config) check() error {
	for _, f := range []struct {
		name string
		v    int
		min  int
	}{
		{"Sites", c.Sites, 1},
		{"URLsPerSite", c.URLsPerSite, 1},
		{"MinResults", c.MinResults, 1},
		{"Week", c.Week, 0},
		{"Universe", c.Universe, 0},
	} {
		if f.v < f.min {
			return fmt.Errorf("world: %s must be at least %d, got %d", f.name, f.min, f.v)
		}
	}
	return nil
}

// World is everything built for one Config.
type World struct {
	Universe  *toplist.Universe // stepped to the snapshot day
	Bootstrap []toplist.Entry   // the top 7/5 × Sites of Universe
	Web       *webgen.Web
	Search    *search.Engine // English-only; its meter includes the list build
	List      *hispar.List
	Stats     hispar.BuildStats
}

// Build builds the world cfg names. A config with a field out of range
// yields no world. When the bootstrap runs out before Sites sites qualify, Build
// returns the world with its partial list together with the error.
func Build(cfg Config) (*World, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	size := cfg.Universe
	if size == 0 {
		size = max(4000, 3*cfg.Sites)
	}
	webSeed := cfg.Seed
	if cfg.WebSeed != 0 {
		webSeed = cfg.WebSeed
	}
	u := toplist.NewUniverse(toplist.Config{Seed: cfg.Seed, Size: size})
	u.Step(cfg.Week * 7)
	boot := u.Top(cfg.Sites * bootstrapNum / bootstrapDen)
	seeds := make([]webgen.SiteSeed, 0, len(boot)+len(cfg.Extra))
	for _, e := range boot {
		seeds = append(seeds, webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank})
	}
	seeds = append(seeds, cfg.Extra...)
	web := webgen.Generate(webgen.Config{Seed: webSeed, Week: cfg.Week, Sites: seeds})
	eng := search.New(web, search.Config{EnglishOnly: true})
	list, stats, err := hispar.Build(eng, boot, hispar.BuildConfig{
		Sites:       cfg.Sites,
		URLsPerSite: cfg.URLsPerSite,
		MinResults:  cfg.MinResults,
		Name:        cfg.Name,
		Week:        cfg.Week,
	})
	return &World{Universe: u, Bootstrap: boot, Web: web, Search: eng, List: list, Stats: stats}, err
}
