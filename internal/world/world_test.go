package world

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/hispar"
	"repro/internal/webgen"
)

func small() Config {
	return Config{Seed: 42, Sites: 20, URLsPerSite: 5, MinResults: 2}
}

func listCSV(t *testing.T, w *World) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := w.List.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		field string
		edit  func(*Config)
	}{
		{"Sites", func(c *Config) { c.Sites = 0 }},
		{"URLsPerSite", func(c *Config) { c.URLsPerSite = 0 }},
		{"MinResults", func(c *Config) { c.MinResults = -1 }},
		{"Week", func(c *Config) { c.Week = -2 }},
		{"Universe", func(c *Config) { c.Universe = -1 }},
	} {
		cfg := small()
		tc.edit(&cfg)
		w, err := Build(cfg)
		if w != nil || err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s out of range: world %v, error %v", tc.field, w, err)
		}
	}
}

func TestBuildShape(t *testing.T) {
	cfg := small()
	cfg.Week = 2
	cfg.Extra = []webgen.SiteSeed{{Domain: "extra-site.org", Rank: 3}}
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(w.Bootstrap), cfg.Sites*7/5; got != want {
		t.Errorf("bootstrap of %d sites, want %d", got, want)
	}
	if got, want := len(w.Web.Sites), len(w.Bootstrap)+1; got != want {
		t.Errorf("web of %d sites, want the bootstrap plus one extra, %d", got, want)
	}
	if _, ok := w.Web.SiteByDomain("extra-site.org"); !ok {
		t.Error("extra site missing from the web")
	}
	if slices.ContainsFunc(w.List.Sets, func(s hispar.URLSet) bool { return s.Domain == "extra-site.org" }) {
		t.Error("extra site entered the list")
	}
	if len(w.List.Sets) != cfg.Sites || w.List.Week != 2 || w.Web.Week != 2 {
		t.Errorf("list of %d sites at week %d over a week-%d web, want %d at week 2",
			len(w.List.Sets), w.List.Week, w.Web.Week, cfg.Sites)
	}
	if w.Stats.Queries == 0 || w.Search.Queries() != w.Stats.Queries {
		t.Errorf("stats count %d queries, the engine's meter %d", w.Stats.Queries, w.Search.Queries())
	}
	again, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(listCSV(t, w), listCSV(t, again)) {
		t.Error("two builds of one config wrote different lists")
	}
}

// TestWebSeed checks that WebSeed moves the web and leaves the top list
// alone.
func TestWebSeed(t *testing.T) {
	base, err := Build(small())
	if err != nil {
		t.Fatal(err)
	}
	cfg := small()
	cfg.WebSeed = cfg.Seed + 5
	other, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Bootstrap {
		if base.Bootstrap[i] != other.Bootstrap[i] {
			t.Fatalf("bootstrap entry %d: %v with WebSeed, %v without", i, other.Bootstrap[i], base.Bootstrap[i])
		}
	}
	if other.Web.Seed != cfg.WebSeed {
		t.Errorf("web seed %d, want %d", other.Web.Seed, cfg.WebSeed)
	}
	if bytes.Equal(listCSV(t, base), listCSV(t, other)) {
		t.Error("a different web seed discovered the same list")
	}
}

// TestPartialWorld checks that a bootstrap that runs out returns the
// world with what was found, and the error.
func TestPartialWorld(t *testing.T) {
	cfg := small()
	cfg.Universe = 10
	w, err := Build(cfg)
	if err == nil || !strings.Contains(err.Error(), "bootstrap exhausted") {
		t.Fatalf("error %v, want an exhausted bootstrap", err)
	}
	if w == nil {
		t.Fatal("no world")
	}
	if n := len(w.List.Sets); len(w.Bootstrap) != 10 || n == 0 || n > 10 {
		t.Errorf("bootstrap of %d sites, list of %d; want 10 and 1 to 10", len(w.Bootstrap), n)
	}
}
