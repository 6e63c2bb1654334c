package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/hispar"
	"repro/internal/search"
	"repro/internal/stats"
	"repro/internal/toplist"
	"repro/internal/webgen"
)

// streamStudy builds a fresh study over the fault web and runs the
// streaming engine with the given config knobs.
func streamStudy(t *testing.T, web *webgen.Web, list *hispar.List,
	mutate func(*StudyConfig), scfg StreamConfig) (*StreamResult, error) {
	t.Helper()
	cfg := StudyConfig{Seed: 7, LandingFetches: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	st, err := NewStudy(web, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st.RunStream(list, scfg)
}

// TestStreamCSVMatchesInMemory is the byte-identity half of the
// streaming contract: the CSV a CSVSink emits site by site must equal
// what WriteMeasurementsCSV produces from the full in-memory result.
func TestStreamCSVMatchesInMemory(t *testing.T) {
	web, list := faultWeb(t)

	res, err := runStudy(t, web, list, nil)
	if err != nil {
		t.Fatalf("in-memory study: %v", err)
	}
	var memBuf bytes.Buffer
	if err := WriteMeasurementsCSV(&memBuf, res); err != nil {
		t.Fatal(err)
	}

	var streamBuf bytes.Buffer
	sink, err := NewCSVSink(&streamBuf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := streamStudy(t, web, list, nil, StreamConfig{Sinks: []SiteSink{sink}}); err != nil {
		t.Fatalf("streaming study: %v", err)
	}

	if !bytes.Equal(memBuf.Bytes(), streamBuf.Bytes()) {
		t.Errorf("streamed CSV differs from in-memory CSV (%d vs %d bytes)",
			streamBuf.Len(), memBuf.Len())
	}
	if memBuf.Len() == 0 {
		t.Fatal("empty CSV: nothing was measured")
	}
}

// foldSites folds sites into a fresh Aggregates in rank order.
func foldSites(sites []SiteResult) *Aggregates {
	agg := NewAggregates()
	for i := range sites {
		agg.AccumulateSite(&sites[i])
	}
	return agg
}

// TestStreamAggregatesMatchInMemory holds Aggregates, folded over a
// study's surviving sites, to the per-site values it summarizes:
// counter- and geomean-backed numbers must be bit-exact, sketch-backed
// quantiles within the sketch's documented relative error, and the
// sketch reads behind the fig2 report rows within the tolerances those
// rows were held to.
func TestStreamAggregatesMatchInMemory(t *testing.T) {
	web, list := faultWeb(t)

	res, err := runStudy(t, web, list, nil)
	if err != nil {
		t.Fatal(err)
	}
	sites := res.Sites
	if len(sites) == 0 {
		t.Fatal("no surviving sites")
	}
	agg := foldSites(sites)
	if agg.Sites != len(sites) {
		t.Fatalf("aggregated %d sites, in-memory kept %d", agg.Sites, len(sites))
	}

	accessors := map[Metric]func(*PageMeasurement) float64{
		MetricBytes:   func(p *PageMeasurement) float64 { return float64(p.Bytes) },
		MetricObjects: func(p *PageMeasurement) float64 { return float64(p.Objects) },
		MetricPLT:     func(p *PageMeasurement) float64 { return p.PLT.Seconds() },
	}
	for m, f := range accessors {
		var deltas, ratios []float64
		pos, neg := 0, 0
		for i := range sites {
			d := sites[i].Delta(f)
			deltas = append(deltas, d)
			if d > 0 {
				pos++
			} else if d < 0 {
				neg++
			}
			if r := sites[i].Ratio(f); r > 0 {
				ratios = append(ratios, r)
			}
		}

		// Exact rows: sign fractions and the geometric mean.
		if got, want := agg.FracDeltaPositive(m), float64(pos)/float64(len(sites)); got != want {
			t.Errorf("%v: FracDeltaPositive = %v, want exactly %v", m, got, want)
		}
		if got, want := agg.FracDeltaNegative(m), float64(neg)/float64(len(sites)); got != want {
			t.Errorf("%v: FracDeltaNegative = %v, want exactly %v", m, got, want)
		}
		if got, want := agg.GeomeanRatio(m), stats.GeometricMean(ratios); got != want {
			t.Errorf("%v: GeomeanRatio = %v, want exactly %v (rank-order fold must match)", m, got, want)
		}

		// Sketch rows: within the documented relative error of the
		// closest-rank sample quantile (the sketch's convention; with 12
		// sites, interpolated quantiles sit between samples and are not
		// the right reference).
		sortedD := append([]float64(nil), deltas...)
		sort.Float64s(sortedD)
		for _, q := range []float64{0.25, 0.5, 0.75} {
			got := agg.Delta(m).Quantile(q)
			want := sortedD[int(math.Round(q*float64(len(sortedD)-1)))]
			tol := 2*agg.Delta(m).Alpha()*math.Abs(want) + 1e-9
			if math.Abs(got-want) > tol {
				t.Errorf("%v: delta q%.2f = %v, want %v ± %v", m, q, got, want, tol)
			}
		}
	}

	checkFig2SketchRows(t)

	// Distribution sizes: one landing per survivor, every internal page.
	internals := 0
	for i := range sites {
		internals += len(sites[i].Internal)
	}
	if got := agg.Landing(MetricBytes).Count(); got != uint64(len(sites)) {
		t.Errorf("landing sketch count %d, want %d", got, len(sites))
	}
	if got := agg.Internal(MetricBytes).Count(); got != uint64(internals) {
		t.Errorf("internal sketch count %d, want %d", got, internals)
	}
}

// checkFig2SketchRows holds the sketch reads behind Fig 2's quantile
// rows — the ±2 MB byte-delta fractions, the median landing PLT and the
// 33-point delta CDFs — to the exact per-site values, at the scale and
// tolerances the fig2 reports were checked at (80 sites × 8 URLs; one
// site is then a small step of any CDF). The aggregates fold the
// survivors of one study.
func checkFig2SketchRows(t *testing.T) {
	t.Helper()
	u := toplist.NewUniverse(toplist.Config{Seed: 11, Size: 4000})
	entries := u.Top(80 * 7 / 5)
	seeds := make([]webgen.SiteSeed, len(entries))
	for i, e := range entries {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	web := webgen.Generate(webgen.Config{Seed: 11, Sites: seeds})
	list, _, err := hispar.Build(search.New(web, search.Config{EnglishOnly: true}), entries,
		hispar.BuildConfig{Sites: 80, URLsPerSite: 8, MinResults: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runStudy(t, web, list, func(c *StudyConfig) { c.Seed = 11 })
	if err != nil {
		t.Fatal(err)
	}
	sites := res.Sites
	agg := foldSites(sites)
	within := func(what string, got, want, tol float64) {
		if math.Abs(got-want) > tol {
			t.Errorf("%s = %v, want %v ± %v", what, got, want, tol)
		}
	}

	for _, m := range []Metric{MetricBytes, MetricObjects, MetricPLT} {
		deltas := make([]float64, len(sites))
		for i := range sites {
			deltas[i] = sites[i].Delta(func(p *PageMeasurement) float64 { return metricOf(p, m) })
		}
		if m == MetricBytes {
			for _, th := range []float64{-2e6, 2e6} {
				want := stats.FractionBelow(deltas, th)
				within(fmt.Sprintf("delta bytes FractionBelow(%g)", th),
					agg.Delta(m).FractionBelow(th), want, stats.DefaultSketchAlpha*math.Abs(want)+0.05)
			}
		}
		// Identical x grids (exact min/max), F(x) within bucket tolerance.
		gotPts, wantPts := agg.Delta(m).Points(33), stats.NewECDF(deltas).Points(33)
		if len(gotPts) != len(wantPts) {
			t.Fatalf("%v: delta CDF has %d points, want %d", m, len(gotPts), len(wantPts))
		}
		for i := range wantPts {
			within(fmt.Sprintf("%v delta CDF[%d] x", m, i), gotPts[i][0], wantPts[i][0], 1e-9*math.Abs(wantPts[i][0])+1e-12)
			within(fmt.Sprintf("%v delta CDF[%d] F(x)", m, i), gotPts[i][1], wantPts[i][1], 0.06)
		}
	}

	plts := make([]float64, len(sites))
	for i := range sites {
		plts[i] = sites[i].Landing.PLT.Seconds()
	}
	want := stats.Median(plts)
	within("landing PLT median", agg.Landing(MetricPLT).Median(), want, stats.DefaultSketchAlpha*math.Abs(want)+0.15)
}

// TestStreamInvariantAcrossWorkersAndWindows reruns the streaming
// engine at different worker counts and window sizes — with faults
// injected so the failed-site path is exercised — and demands identical
// artifacts: same CSV bytes and same outcomes. This is the streaming
// extension of the determinism contract.
func TestStreamInvariantAcrossWorkersAndWindows(t *testing.T) {
	web, list := faultWeb(t)
	faults := func(c *StudyConfig) {
		c.DNSFailProb = 0.3
		c.FailureBudget = -1 // ignore failures; we compare artifacts
	}

	type run struct {
		csv  []byte
		sres *StreamResult
	}
	do := func(workers, window int) run {
		var buf bytes.Buffer
		sink, err := NewCSVSink(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := streamStudy(t, web, list,
			func(c *StudyConfig) { faults(c); c.Workers = workers },
			StreamConfig{Sinks: []SiteSink{sink}, window: window})
		if err != nil {
			t.Fatalf("workers=%d window=%d: %v", workers, window, err)
		}
		return run{csv: buf.Bytes(), sres: sres}
	}

	base := do(1, 2)
	for _, alt := range []struct{ workers, window int }{{8, 3}, {4, 16}} {
		got := do(alt.workers, alt.window)
		if !bytes.Equal(base.csv, got.csv) {
			t.Errorf("workers=%d window=%d: CSV differs from serial run (%d vs %d bytes)",
				alt.workers, alt.window, len(got.csv), len(base.csv))
		}
		for i := range base.sres.Outcomes {
			b, g := base.sres.Outcomes[i], got.sres.Outcomes[i]
			if b.OK != g.OK || b.Attempts != g.Attempts || b.Domain != g.Domain {
				t.Errorf("workers=%d: outcome %d differs: %+v vs %+v", alt.workers, i, b, g)
			}
		}
		// The reorder window must actually bound retention.
		if got.sres.MaxInFlight > alt.window && alt.window >= alt.workers+1 {
			t.Errorf("workers=%d window=%d: MaxInFlight %d exceeds window",
				alt.workers, alt.window, got.sres.MaxInFlight)
		}
	}
}

// TestStreamWindowBoundsInFlight pins the memory contract: however many
// workers race, the engine never retains more than its window of site
// results — an explicit one, or the 4×Workers default every CLI run uses.
func TestStreamWindowBoundsInFlight(t *testing.T) {
	web, list := faultWeb(t)
	for _, tc := range []struct{ window, bound int }{{7, 7}, {0, 4 * 6}} {
		sres, err := streamStudy(t, web, list,
			func(c *StudyConfig) { c.Workers = 6 },
			StreamConfig{window: tc.window})
		if err != nil {
			t.Fatal(err)
		}
		if sres.MaxInFlight > tc.bound {
			t.Errorf("window %d: MaxInFlight %d exceeds %d", tc.window, sres.MaxInFlight, tc.bound)
		}
		if sres.MaxInFlight == 0 {
			t.Errorf("window %d: MaxInFlight 0: reorder buffer never held a site?", tc.window)
		}
		if got := sres.Stats.Gauges["stream.window"]; got != float64(tc.bound) {
			t.Errorf("window %d: stream.window gauge %v, want %d", tc.window, got, tc.bound)
		}
	}
}

// TestStreamStatsArePerRun runs one Study twice: each run's metrics must
// describe that run alone, not accumulate across runs.
func TestStreamStatsArePerRun(t *testing.T) {
	web, list := faultWeb(t)
	st, err := NewStudy(web, StudyConfig{Seed: 7, LandingFetches: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var runs [2]*StreamResult
	for i := range runs {
		if runs[i], err = st.RunStream(list, StreamConfig{}); err != nil {
			t.Fatal(err)
		}
		if got := runs[i].Stats.Counters["sites.total"]; got != int64(len(runs[i].Outcomes)) {
			t.Errorf("run %d: sites.total %d, want %d", i, got, len(runs[i].Outcomes))
		}
	}
	if !reflect.DeepEqual(runs[0].Stats.Counters, runs[1].Stats.Counters) {
		t.Errorf("second run's counters differ from the first's:\n%v\n%v",
			runs[0].Stats.Counters, runs[1].Stats.Counters)
	}
}

// TestStreamFailureBudget: the budget semantics must match Run's — the
// run completes, the error reports the overage.
func TestStreamFailureBudget(t *testing.T) {
	web, list := faultWeb(t)
	sres, err := streamStudy(t, web, list,
		func(c *StudyConfig) { c.DNSFailProb = 0.9; c.MaxAttempts = 1; c.FailureBudget = 0.01 },
		StreamConfig{})
	if err == nil {
		t.Fatal("expected a failure-budget error")
	}
	if sres == nil {
		t.Fatal("budget overrun must still return the completed result")
	}
	if sres.FailedSites() == 0 {
		t.Error("no failed sites despite DNSFailProb=0.9")
	}
	if got := len(sres.Outcomes); got != len(list.Sets) {
		t.Errorf("outcomes %d, want %d — every site must be attempted", got, len(list.Sets))
	}
}
