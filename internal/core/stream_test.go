package core

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"repro/internal/hispar"
	"repro/internal/stats"
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

// TestStreamAggregatesMatchInMemory checks the aggregate half of the
// contract against the in-memory result: counter- and geomean-backed
// numbers must be bit-exact, sketch-backed quantiles within the
// sketch's documented relative error.
func TestStreamAggregatesMatchInMemory(t *testing.T) {
	web, list := faultWeb(t)

	res, err := runStudy(t, web, list, nil)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := streamStudy(t, web, list, nil, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}

	sites := res.Sites
	if len(sites) == 0 {
		t.Fatal("no surviving sites")
	}
	if sres.Agg.Sites != len(sites) {
		t.Fatalf("aggregated %d sites, in-memory kept %d", sres.Agg.Sites, len(sites))
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
		if got, want := sres.Agg.FracDeltaPositive(m), float64(pos)/float64(len(sites)); got != want {
			t.Errorf("%v: FracDeltaPositive = %v, want exactly %v", m, got, want)
		}
		if got, want := sres.Agg.FracDeltaNegative(m), float64(neg)/float64(len(sites)); got != want {
			t.Errorf("%v: FracDeltaNegative = %v, want exactly %v", m, got, want)
		}
		if got, want := sres.Agg.GeomeanRatio(m), stats.GeometricMean(ratios); got != want {
			t.Errorf("%v: GeomeanRatio = %v, want exactly %v (rank-order fold must match)", m, got, want)
		}

		// Sketch rows: within the documented relative error of the
		// closest-rank sample quantile (the sketch's convention; with 12
		// sites, interpolated quantiles sit between samples and are not
		// the right reference).
		sortedD := append([]float64(nil), deltas...)
		sort.Float64s(sortedD)
		for _, q := range []float64{0.25, 0.5, 0.75} {
			got := sres.Agg.Delta(m).Quantile(q)
			want := sortedD[int(math.Round(q*float64(len(sortedD)-1)))]
			tol := 2*sres.Agg.Delta(m).Alpha()*math.Abs(want) + 1e-9
			if math.Abs(got-want) > tol {
				t.Errorf("%v: delta q%.2f = %v, want %v ± %v", m, q, got, want, tol)
			}
		}
	}

	// The tail counters cover every survivor here (12 sites < topK=30).
	if sres.Top.N != len(sites) || sres.Bottom.N != len(sites) {
		t.Errorf("tail N = %d/%d, want %d (list smaller than both tails)",
			sres.Top.N, sres.Bottom.N, len(sites))
	}
	fBytes := accessors[MetricBytes]
	posBytes := 0
	for i := range sites {
		if sites[i].Delta(fBytes) > 0 {
			posBytes++
		}
	}
	if sres.Top.Pos[MetricBytes] != posBytes || sres.Bottom.Pos[MetricBytes] != posBytes {
		t.Errorf("tail Pos[bytes] = %d/%d, want %d",
			sres.Top.Pos[MetricBytes], sres.Bottom.Pos[MetricBytes], posBytes)
	}

	// Distribution sizes: one landing per survivor, every internal page.
	internals := 0
	for i := range sites {
		internals += len(sites[i].Internal)
	}
	if got := sres.Agg.Landing(MetricBytes).Count(); got != uint64(len(sites)) {
		t.Errorf("landing sketch count %d, want %d", got, len(sites))
	}
	if got := sres.Agg.Internal(MetricBytes).Count(); got != uint64(internals) {
		t.Errorf("internal sketch count %d, want %d", got, internals)
	}
}

// TestStreamInvariantAcrossWorkersAndWindows reruns the streaming
// engine at different worker counts and window sizes — with faults
// injected so the failed-site path is exercised — and demands identical
// artifacts: same CSV bytes, same outcomes, bit-identical sketch reads
// and geomeans. This is the streaming extension of the determinism
// contract.
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
	do := func(workers, window, shardSize int) run {
		var buf bytes.Buffer
		sink, err := NewCSVSink(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := streamStudy(t, web, list,
			func(c *StudyConfig) { faults(c); c.Workers = workers },
			StreamConfig{Sinks: []SiteSink{sink}, Window: window, ShardSize: shardSize})
		if err != nil {
			t.Fatalf("workers=%d window=%d: %v", workers, window, err)
		}
		return run{csv: buf.Bytes(), sres: sres}
	}

	base := do(1, 2, 4)
	for _, alt := range []struct{ workers, window, shard int }{
		{8, 3, 4}, {4, 16, 4},
	} {
		got := do(alt.workers, alt.window, alt.shard)
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
		for m := Metric(0); m < numMetrics; m++ {
			for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
				if b, g := base.sres.Agg.Delta(m).Quantile(q), got.sres.Agg.Delta(m).Quantile(q); b != g {
					t.Errorf("workers=%d: delta(%v) q%.2f differs: %v vs %v", alt.workers, m, q, b, g)
				}
			}
			if b, g := base.sres.Agg.GeomeanRatio(m), got.sres.Agg.GeomeanRatio(m); b != g {
				t.Errorf("workers=%d: geomean(%v) differs bitwise: %v vs %v", alt.workers, m, b, g)
			}
		}
		if base.sres.Agg.FewerObjectsButLarger != got.sres.Agg.FewerObjectsButLarger ||
			base.sres.Top != got.sres.Top || base.sres.Bottom != got.sres.Bottom {
			t.Errorf("workers=%d: exact counters differ", alt.workers)
		}
		// The reorder window must actually bound retention.
		if got.sres.MaxInFlight > alt.window && alt.window >= alt.workers+1 {
			t.Errorf("workers=%d window=%d: MaxInFlight %d exceeds window",
				alt.workers, alt.window, got.sres.MaxInFlight)
		}
	}
}

// TestStreamWindowBoundsInFlight pins the memory contract: however many
// workers race, the engine never retains more than Window site results.
func TestStreamWindowBoundsInFlight(t *testing.T) {
	web, list := faultWeb(t)
	sres, err := streamStudy(t, web, list,
		func(c *StudyConfig) { c.Workers = 6 },
		StreamConfig{Window: 7})
	if err != nil {
		t.Fatal(err)
	}
	if sres.MaxInFlight > 7 {
		t.Errorf("MaxInFlight %d exceeds window 7", sres.MaxInFlight)
	}
	if sres.MaxInFlight == 0 {
		t.Error("MaxInFlight 0: reorder buffer never held a site?")
	}
}

// TestStreamShardSummaries checks the rank-block bookkeeping: contiguous
// half-open ranges covering the list, with survivor/failure counts that
// add up.
func TestStreamShardSummaries(t *testing.T) {
	web, list := faultWeb(t)
	sres, err := streamStudy(t, web, list, nil, StreamConfig{ShardSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	n := len(list.Sets)
	if len(sres.Shards) != (n+4)/5 {
		t.Fatalf("%d shards for %d sites at size 5", len(sres.Shards), n)
	}
	covered, ok, failed := 0, 0, 0
	for i, sh := range sres.Shards {
		if sh.Lo != covered {
			t.Errorf("shard %d starts at %d, want %d", i, sh.Lo, covered)
		}
		if sh.Hi <= sh.Lo {
			t.Errorf("shard %d empty range [%d,%d)", i, sh.Lo, sh.Hi)
		}
		if sh.Sites+sh.Failed != sh.Hi-sh.Lo {
			t.Errorf("shard %d: %d ok + %d failed != %d sites", i, sh.Sites, sh.Failed, sh.Hi-sh.Lo)
		}
		covered = sh.Hi
		ok += sh.Sites
		failed += sh.Failed
	}
	if covered != n {
		t.Errorf("shards cover [0,%d), want [0,%d)", covered, n)
	}
	if ok != sres.Agg.Sites || ok+failed != n {
		t.Errorf("shard totals %d ok/%d failed vs aggregate %d of %d", ok, failed, sres.Agg.Sites, n)
	}
}

// TestAggregatesMergeOrderInvariance: counters and sketch reads of a
// merged aggregate must not depend on how sites were partitioned into
// shards (geomeans are bit-stable only for rank-order folds, so they
// get a tolerance here).
func TestAggregatesMergeOrderInvariance(t *testing.T) {
	web, list := faultWeb(t)
	res, err := runStudy(t, web, list, nil)
	if err != nil {
		t.Fatal(err)
	}
	sites := res.Sites
	if len(sites) < 4 {
		t.Fatalf("need a few sites, got %d", len(sites))
	}

	whole := NewAggregates()
	for i := range sites {
		whole.AccumulateSite(&sites[i])
	}

	// Partition round-robin into 3 shards, merge in a scrambled order.
	shards := []*Aggregates{NewAggregates(), NewAggregates(), NewAggregates()}
	for i := range sites {
		shards[i%3].AccumulateSite(&sites[i])
	}
	merged := NewAggregates()
	for _, i := range []int{2, 0, 1} {
		if err := merged.Merge(shards[i]); err != nil {
			t.Fatal(err)
		}
	}

	if whole.Sites != merged.Sites ||
		whole.FewerObjectsButLarger != merged.FewerObjectsButLarger ||
		whole.InsecureInternalSites != merged.InsecureInternalSites {
		t.Error("counters differ between whole and merged aggregates")
	}
	for m := Metric(0); m < numMetrics; m++ {
		for _, q := range []float64{0, 0.5, 1} {
			if a, b := whole.Delta(m).Quantile(q), merged.Delta(m).Quantile(q); a != b {
				t.Errorf("delta(%v) q%.1f: %v vs %v", m, q, a, b)
			}
		}
		a, b := whole.GeomeanRatio(m), merged.GeomeanRatio(m)
		if math.Abs(a-b) > 1e-9*math.Abs(a) {
			t.Errorf("geomean(%v) diverged: %v vs %v", m, a, b)
		}
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
