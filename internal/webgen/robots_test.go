package webgen

import (
	"strings"
	"testing"
)

func robotsWeb(t *testing.T) *Web {
	t.Helper()
	seeds := make([]SiteSeed, 0, 60)
	for i := 0; i < 60; i++ {
		seeds = append(seeds, SiteSeed{Domain: DomainNameForTest(i), Rank: i*16 + 1})
	}
	return Generate(Config{Seed: 17, Sites: seeds})
}

func TestDisallowedStableAndExcluded(t *testing.T) {
	w := robotsWeb(t)
	var site *Site
	for _, s := range w.Sites {
		if s.Profile.DisallowFrac > 0 {
			site = s
			break
		}
	}
	if site == nil {
		t.Skip("no robots-using site at this seed")
	}
	// Deterministic.
	found := 0
	for i := 1; i <= site.PoolSize(); i++ {
		p := site.PageAt(i)
		if p.Disallowed() != p.Disallowed() {
			t.Fatal("Disallowed not stable")
		}
		if p.Disallowed() {
			found++
		}
	}
	if found == 0 {
		t.Skip("no disallowed pages drawn")
	}
	if site.Landing().Disallowed() {
		t.Error("landing page must never be disallowed")
	}
	// robots.txt lists exactly the disallowed paths.
	robots := site.RobotsTxt()
	if strings.Count(robots, "Disallow: /") != found {
		t.Errorf("robots.txt rules = %d, disallowed pages = %d\n%s",
			strings.Count(robots, "Disallow: /"), found, robots)
	}
	// Search-indexable pages exclude them.
	for _, p := range site.TopIndexable(site.PoolSize()) {
		if p.Disallowed() {
			t.Errorf("TopIndexable returned a disallowed page: %s", p.URL())
		}
	}
	for _, n := range []int{0, 1, 3} {
		if got := len(site.TopIndexable(n)); got != n {
			t.Errorf("TopIndexable(%d) returned %d pages", n, got)
		}
	}
}

func TestInsecureRedirectModel(t *testing.T) {
	w := robotsWeb(t)
	var page *Page
	var target string
	for _, s := range w.Sites {
		if s.Profile.InsecureRedirectProb <= 0 {
			continue
		}
		for i := 1; i <= s.PoolSize(); i++ {
			if tgt, ok := s.PageAt(i).RedirectsToInsecure(); ok {
				page, target = s.PageAt(i), tgt
				break
			}
		}
		if page != nil {
			break
		}
	}
	if page == nil {
		t.Skip("no insecure-redirect page at this seed")
	}
	if !strings.HasPrefix(target, "http://") {
		t.Fatalf("redirect target %q is not plain HTTP", target)
	}
	if !strings.HasPrefix(page.URL(), "https://") {
		t.Errorf("the list URL must stay HTTPS, got %s", page.URL())
	}
	if page.Scheme() != "http" {
		t.Errorf("effective scheme = %s, want http after redirect", page.Scheme())
	}

	m := page.Build()
	if m.RedirectedFrom != page.URL() {
		t.Errorf("RedirectedFrom = %q, want %q", m.RedirectedFrom, page.URL())
	}
	if m.Objects[0].Role != RoleRedirect || m.Objects[0].Depth != 0 {
		t.Fatalf("Objects[0] = %+v, want the redirect", m.Objects[0])
	}
	doc := m.Objects[m.DocIndex()]
	if doc.URL != target || doc.Depth != 1 || doc.Parent != 0 {
		t.Fatalf("document node wrong: %+v", doc)
	}
	for i, o := range m.Objects[2:] {
		if o.Parent <= 0 || o.Depth < 2 {
			t.Fatalf("object %d not shifted below the document: %+v", i+2, o)
		}
	}
	// Markup still lists the document's direct children.
	html := m.RenderHTML()
	refs := 0
	for _, o := range m.Objects {
		if o.Parent == m.DocIndex() && strings.Contains(html, o.URL) {
			refs++
		}
	}
	if refs == 0 {
		t.Error("rendered markup references none of the document's children")
	}
}

func TestNormalPagesUnchangedByRedirectLogic(t *testing.T) {
	w := robotsWeb(t)
	s := w.Sites[0]
	m := s.Landing().Build()
	if m.RedirectedFrom != "" || m.Objects[0].Role != RoleDoc {
		t.Error("landing pages must never carry a redirect hop")
	}
	if m.DocIndex() != 0 {
		t.Error("DocIndex should be 0 for normal pages")
	}
}
