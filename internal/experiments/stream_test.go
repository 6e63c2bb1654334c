package experiments

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// The parity test holds the fig2 reports, computed from the context's
// collected per-site results, to the constant-size aggregates the same
// sites fold into: exact rows bit-identical, sketch rows within the
// sketch's tolerance.

var (
	parityOnce sync.Once
	parityCtx  *Context
	parityAgg  *core.Aggregates
	parityErr  error
)

func parityContext(t *testing.T) (*Context, *core.Aggregates) {
	t.Helper()
	if testing.Short() {
		t.Skip("streaming parity test skipped in -short mode")
	}
	parityOnce.Do(func() {
		parityCtx = NewContext(Config{Seed: 11, Sites: 80, PerSite: 8, LandingFetches: 2})
		res, err := parityCtx.Study()
		if err != nil {
			parityErr = err
			return
		}
		parityAgg = core.NewAggregates()
		for i := range res.Sites {
			parityAgg.AccumulateSite(&res.Sites[i])
		}
	})
	if parityErr != nil {
		t.Fatal(parityErr)
	}
	return parityCtx, parityAgg
}

// streamedFig2 builds the H1K fig2 report rows and series from the
// aggregates, under the same metric names as RunFig2a/b/c.
func streamedFig2(id string, agg *core.Aggregates) *Report {
	r := &Report{ID: id}
	switch id {
	case "fig2a":
		r.addRow("frac sites landing larger (H1K)", "", agg.FracDeltaPositive(core.MetricBytes), "%.2f")
		r.addRow("geomean size ratio L/I", "", agg.GeomeanRatio(core.MetricBytes), "%.2f")
		r.addRow("frac internal >=2MB larger", "", agg.Delta(core.MetricBytes).FractionBelow(-2e6), "%.2f")
		r.addRow("frac internal >=2MB smaller", "", 1-agg.Delta(core.MetricBytes).FractionBelow(2e6), "%.2f")
		pts := agg.Delta(core.MetricBytes).Points(33)
		for i := range pts {
			pts[i][0] /= 1e6
		}
		r.addSeries("H1K L.size-I.size (MB)", pts)
	case "fig2b":
		r.addRow("frac sites landing more objects (H1K)", "", agg.FracDeltaPositive(core.MetricObjects), "%.2f")
		r.addRow("geomean object ratio L/I", "", agg.GeomeanRatio(core.MetricObjects), "%.2f")
		fewer := 0.0
		if agg.Sites > 0 {
			fewer = float64(agg.FewerObjectsButLarger) / float64(agg.Sites)
		}
		r.addRow("frac fewer objects but larger", "", fewer, "%.2f")
		r.addSeries("H1K L.#obj-I.#obj", agg.Delta(core.MetricObjects).Points(33))
	case "fig2c":
		r.addRow("frac sites landing faster (H1K)", "", agg.FracDeltaNegative(core.MetricPLT), "%.2f")
		r.addRow("median L.PLT (s)", "", agg.Landing(core.MetricPLT).Median(), "%.2f")
		r.addSeries("H1K L.PLT-I.PLT (s)", agg.Delta(core.MetricPLT).Points(33))
	}
	return r
}

// exactRows are report rows backed by integer counters or rank-ordered
// log-sums in the aggregates — they must match bit for bit.
var exactRows = map[string][]string{
	"fig2a": {
		"frac sites landing larger (H1K)",
		"geomean size ratio L/I",
	},
	"fig2b": {
		"frac sites landing more objects (H1K)",
		"geomean object ratio L/I",
		"frac fewer objects but larger",
	},
	"fig2c": {
		"frac sites landing faster (H1K)",
	},
}

// sketchRows are quantile- or CDF-backed rows; tol is the absolute
// tolerance granted on top of the sketch's relative error (fractions
// can shift by the samples whose bucket straddles the threshold, and
// small-sample medians by closest-rank vs interpolation).
var sketchRows = map[string]map[string]float64{
	"fig2a": {
		"frac internal >=2MB larger":  0.05,
		"frac internal >=2MB smaller": 0.05,
	},
	"fig2c": {
		"median L.PLT (s)": 0.15,
	},
}

func TestStreamReportsMatchInMemory(t *testing.T) {
	mem, agg := parityContext(t)
	for _, id := range []string{"fig2a", "fig2b", "fig2c"} {
		exp, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		memRep, err := exp.Run(mem)
		if err != nil {
			t.Fatalf("%s in-memory: %v", id, err)
		}
		strRep := streamedFig2(id, agg)
		// Every streamed row is compared below, exactly or within a
		// sketch tolerance.
		for _, row := range strRep.Rows {
			if _, sketch := sketchRows[id][row.Metric]; !sketch && !slices.Contains(exactRows[id], row.Metric) {
				t.Errorf("%s: streamed row %q is neither exact nor a sketch row", id, row.Metric)
			}
		}

		for _, metric := range exactRows[id] {
			want := memRep.MustValue(metric)
			got := strRep.MustValue(metric)
			if got != want {
				t.Errorf("%s %q: streamed %v, in-memory %v — must be exact", id, metric, got, want)
			}
		}
		for metric, tol := range sketchRows[id] {
			want := memRep.MustValue(metric)
			got := strRep.MustValue(metric)
			bound := stats.DefaultSketchAlpha*math.Abs(want) + tol
			if math.Abs(got-want) > bound {
				t.Errorf("%s %q: streamed %v, in-memory %v (tol %v)", id, metric, got, want, bound)
			}
		}

		// CDF series: identical x grids (exact min/max), y within bucket
		// tolerance.
		for name, memPts := range memRep.Series {
			strPts, ok := strRep.Series[name]
			if !ok {
				t.Errorf("%s: streamed report missing series %q", id, name)
				continue
			}
			if len(strPts) != len(memPts) {
				t.Errorf("%s series %q: %d vs %d points", id, name, len(strPts), len(memPts))
				continue
			}
			for i := range memPts {
				if dx := math.Abs(strPts[i][0] - memPts[i][0]); dx > 1e-9*math.Abs(memPts[i][0])+1e-12 {
					t.Errorf("%s series %q[%d]: x %v vs %v", id, name, i, strPts[i][0], memPts[i][0])
				}
				if dy := math.Abs(strPts[i][1] - memPts[i][1]); dy > 0.06 {
					t.Errorf("%s series %q[%d]: F(x) %v vs %v", id, name, i, strPts[i][1], memPts[i][1])
				}
			}
		}
	}
}

// TestStreamStudySingleFlight: the context's cold study runs through the
// streaming engine once; repeated Study calls must reuse that run.
func TestStreamStudySingleFlight(t *testing.T) {
	ctx, _ := parityContext(t)
	a, err := ctx.Study()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.Study()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Study re-ran instead of returning the cached result")
	}
	if len(a.Sites) == 0 {
		t.Error("streaming study collected zero sites")
	}
	if got := a.Stats.Counters["sites.total"]; got != int64(len(a.List.Sets)) {
		t.Errorf("sites.total %d, want %d: one study over the list", got, len(a.List.Sets))
	}
}
