package whatif

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hispar"
	"repro/internal/search"
	"repro/internal/toplist"
	"repro/internal/webgen"
)

// fixtureConfig is the fixture's baseline study configuration.
var fixtureConfig = core.StudyConfig{Seed: 71, LandingFetches: 2}

func fixture(t *testing.T) (*Evaluator, *hispar.List) {
	t.Helper()
	u := toplist.NewUniverse(toplist.Config{Seed: 71, Size: 500})
	entries := u.Top(30)
	seeds := make([]webgen.SiteSeed, len(entries))
	for i, e := range entries {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	web := webgen.Generate(webgen.Config{Seed: 71, Sites: seeds})
	eng := search.New(web, search.Config{EnglishOnly: true})
	list, _, err := hispar.Build(eng, entries, hispar.BuildConfig{
		Sites: 16, URLsPerSite: 5, MinResults: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(web, fixtureConfig), list
}

// scenario returns the registered scenario with the given name.
func scenario(t *testing.T, name string) Scenario {
	t.Helper()
	for _, s := range Scenarios() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no scenario named %q", name)
	return Scenario{}
}

func TestScenarioRegistry(t *testing.T) {
	if len(Scenarios()) < 6 {
		t.Fatalf("scenarios = %d", len(Scenarios()))
	}
	names := make(map[string]bool)
	for _, s := range Scenarios() {
		if s.Name == "" || s.Description == "" {
			t.Errorf("incomplete scenario %+v", s)
		}
		if names[s.Name] {
			t.Errorf("scenario name %q registered twice", s.Name)
		}
		names[s.Name] = true
	}
}

func TestQUICSpeedsUpEveryPage(t *testing.T) {
	ev, list := fixture(t)
	sc := scenario(t, "quic")
	res, err := ev.Evaluate(list, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pages) == 0 {
		t.Fatal("no pages evaluated")
	}
	faster := 0
	for _, p := range res.Pages {
		if p.Baseline <= 0 || p.Scenario <= 0 {
			t.Fatalf("bad timings %+v", p)
		}
		if p.Scenario <= p.Baseline {
			faster++
		}
	}
	if faster < len(res.Pages)*3/4 {
		t.Errorf("QUIC sped up only %d/%d pages", faster, len(res.Pages))
	}
	if res.MedianImprovement(true) <= 0 || res.MedianImprovement(false) <= 0 {
		t.Error("QUIC should improve both page types")
	}
}

func TestPerfectCDNFavorsLanding(t *testing.T) {
	ev, list := fixture(t)
	sc := scenario(t, "perfect-cdn")
	res, err := ev.Evaluate(list, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.MedianImprovement(false) < -0.02 {
		t.Errorf("perfect CDN should not slow internal pages: %.3f", res.MedianImprovement(false))
	}
	// The Vesuna-style asymmetry: landing pages, already warm, gain more
	// headroom... actually landing pages gain more because more of their
	// bytes ride the CDN. The asymmetry must not be strongly negative.
	if res.Asymmetry() < -0.05 {
		t.Errorf("perfect-CDN asymmetry strongly favours internal pages: %+.3f", res.Asymmetry())
	}
}

func TestNoCDNHurtsLandingMore(t *testing.T) {
	ev, list := fixture(t)
	sc := scenario(t, "no-cdn")
	res, err := ev.Evaluate(list, sc)
	if err != nil {
		t.Fatal(err)
	}
	// Landing pages lean on warm edges; losing them must hurt landing
	// pages at least as much as internal pages (§5.1).
	if res.Asymmetry() > 0.02 {
		t.Errorf("no-cdn asymmetry %+.3f; landing should lose more", res.Asymmetry())
	}
}

func TestServerPushImprovesOnLoad(t *testing.T) {
	ev, list := fixture(t)
	sc := scenario(t, "push")
	res, err := ev.Evaluate(list, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.MedianLoadImprovement(true) <= 0 {
		t.Errorf("push should cut landing onLoad: %.3f", res.MedianLoadImprovement(true))
	}
	if res.MedianLoadImprovement(false) <= 0 {
		t.Errorf("push should cut internal onLoad: %.3f", res.MedianLoadImprovement(false))
	}
}

func TestPageDeltaMath(t *testing.T) {
	p := PageDelta{Baseline: 2 * time.Second, Scenario: time.Second,
		BaselineLoad: 4 * time.Second, ScenarioLoad: 3 * time.Second}
	if p.Improvement() != 0.5 {
		t.Errorf("Improvement = %v", p.Improvement())
	}
	if p.LoadImprovement() != 0.25 {
		t.Errorf("LoadImprovement = %v", p.LoadImprovement())
	}
	if (PageDelta{}).Improvement() != 0 {
		t.Error("zero baseline should yield 0")
	}
}

// TestScenariosRepeatable evaluates every scenario alone (Evaluate)
// and all together against one shared baseline (EvaluateAll), and
// requires identical results: a scenario's rows depend neither on the
// run nor on which other scenarios share its baseline.
func TestScenariosRepeatable(t *testing.T) {
	ev, list := fixture(t)
	all, err := ev.EvaluateAll(list)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Scenarios()) {
		t.Fatalf("EvaluateAll returned %d results for %d scenarios", len(all), len(Scenarios()))
	}
	for i, sc := range Scenarios() {
		one, err := ev.Evaluate(list, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(all[i], one) {
			t.Errorf("%s: EvaluateAll's result differs from Evaluate's", sc.Name)
		}
	}
}

// TestBaselineIsTheStudy requires every PageDelta's baseline timings
// to be the study engine's measurement of that page: Study.Run on the
// same list and base config, paired by site and position.
func TestBaselineIsTheStudy(t *testing.T) {
	ev, list := fixture(t)
	res, err := ev.Evaluate(list, scenario(t, "h2"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.NewStudy(ev.web, fixtureConfig)
	if err != nil {
		t.Fatal(err)
	}
	study, err := st.Run(list)
	if err != nil {
		t.Fatal(err)
	}
	var want []*core.PageMeasurement
	for i := range study.Sites {
		s := &study.Sites[i]
		want = append(want, &s.Landing)
		for j := range s.Internal {
			want = append(want, &s.Internal[j])
		}
	}
	pages := 0
	for i := range list.Sets {
		pages += list.Sets[i].PageCount()
	}
	if len(res.Pages) != len(want) || len(want) != pages {
		t.Fatalf("%d page deltas for %d measured pages, want %d", len(res.Pages), len(want), pages)
	}
	for i, p := range res.Pages {
		m := want[i]
		if p.URL != m.URL || p.IsLanding != m.IsLanding || p.Baseline != m.PLT || p.BaselineLoad != m.OnLoad {
			t.Errorf("page %d: delta %s landing=%v PLT %v onLoad %v; study %s landing=%v PLT %v onLoad %v",
				i, p.URL, p.IsLanding, p.Baseline, p.BaselineLoad, m.URL, m.IsLanding, m.PLT, m.OnLoad)
		}
	}
}

// TestPageSetMismatchIsAnError pairs a baseline with scenario results
// whose page sets differ — a dropped internal page, a missing site, a
// different page in one position — and requires an error each time,
// never misaligned pairs.
func TestPageSetMismatchIsAnError(t *testing.T) {
	ev, list := fixture(t)
	st, err := core.NewStudy(ev.web, fixtureConfig)
	if err != nil {
		t.Fatal(err)
	}
	base, err := st.Run(list)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pairPages(base.Sites, base.Sites); err != nil {
		t.Fatalf("a baseline paired with itself: %v", err)
	}
	clone := func() []core.SiteResult {
		out := make([]core.SiteResult, len(base.Sites))
		for i, s := range base.Sites {
			s.Internal = append([]core.PageMeasurement(nil), s.Internal...)
			out[i] = s
		}
		return out
	}
	dropped := clone()
	dropped[2].Internal = dropped[2].Internal[1:]
	missing := clone()[1:]
	swapped := clone()
	swapped[4].Internal[0], swapped[4].Internal[1] = swapped[4].Internal[1], swapped[4].Internal[0]
	for name, scen := range map[string][]core.SiteResult{"dropped page": dropped, "missing site": missing, "swapped pages": swapped} {
		if pages, err := pairPages(base.Sites, scen); err == nil {
			t.Errorf("%s: paired %d pages without an error", name, len(pages))
		}
	}
}
