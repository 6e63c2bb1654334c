package runstats

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCountersAndGauges(t *testing.T) {
	s := NewSet()
	ok := NewCounter("loads.ok")
	s.Commit(Update{Series: ok, Delta: 1})
	s.Commit(Update{Series: ok, Delta: 2}, Update{Series: NewCounter("loads.err.timeout"), Delta: 1})
	s.SetGauge("worker.0.utilization", 0.75)
	s.SetGauge("worker.0.utilization", 0.5) // gauges overwrite

	snap := s.Snapshot()
	if got := snap.Counters["loads.ok"]; got != 3 {
		t.Errorf("loads.ok = %d, want 3", got)
	}
	if got := s.Counter("loads.ok"); got != 3 {
		t.Errorf("Counter(loads.ok) = %d, want 3", got)
	}
	if got, ok := snap.Counters["never.touched"]; ok || got != 0 {
		t.Errorf("absent counter = %d (present %v), want 0 and unset", got, ok)
	}
	if got := snap.Gauges["worker.0.utilization"]; got != 0.5 {
		t.Errorf("gauge = %v, want 0.5", got)
	}
}

func TestHistogramStats(t *testing.T) {
	s := NewSet()
	h := NewHistogram("retry.backoff")
	for i := 1; i <= 100; i++ {
		s.Commit(Update{Series: h, Sample: float64(i)})
	}
	hs := s.Snapshot().Histograms["retry.backoff"]
	if hs.Count != 100 {
		t.Fatalf("count = %d", hs.Count)
	}
	if hs.Min != 1 || hs.Max != 100 {
		t.Errorf("min/max = %v/%v, want 1/100", hs.Min, hs.Max)
	}
	if hs.Mean != 50.5 {
		t.Errorf("mean = %v, want 50.5", hs.Mean)
	}
	// Log buckets are ~26% wide; quantiles must land in the right decade.
	if hs.P50 < 30 || hs.P50 > 80 {
		t.Errorf("p50 = %v, want within a bucket of 50", hs.P50)
	}
	if hs.P99 < 80 || hs.P99 > 100 {
		t.Errorf("p99 = %v, want within a bucket of 99", hs.P99)
	}
	if hs.P50 > hs.P90 || hs.P90 > hs.P99 {
		t.Errorf("quantiles not monotone: p50=%v p90=%v p99=%v", hs.P50, hs.P90, hs.P99)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	s := NewSet()
	x := NewHistogram("x")
	s.Commit(
		Update{Series: x, Sample: 0},            // underflow bucket
		Update{Series: x, Sample: -5},           // clamps to 0
		Update{Series: x, Sample: math.NaN()},   // dropped
		Update{Series: x, Sample: math.Inf(1)},  // dropped
		Update{Series: x, Sample: math.Inf(-1)}, // dropped
	)
	h := s.Snapshot().Histograms["x"]
	if h.Count != 2 {
		t.Fatalf("count = %d, want 2 (zero + clamped)", h.Count)
	}
	if h.Min != 0 || h.Max != 0 || h.P99 != 0 {
		t.Errorf("all-zero histogram: %+v", h)
	}
}

func TestSnapshotIsDetached(t *testing.T) {
	s := NewSet()
	a, h := NewCounter("a"), NewHistogram("h")
	s.Commit(Update{Series: a, Delta: 1}, Update{Series: h, Sample: 2})
	snap := s.Snapshot()
	s.Commit(Update{Series: a, Delta: 10}, Update{Series: h, Sample: 200})
	if snap.Counters["a"] != 1 {
		t.Error("snapshot counter mutated by a later Commit")
	}
	if snap.Histograms["h"].Count != 1 {
		t.Error("snapshot histogram mutated by a later Commit")
	}
}

func TestRender(t *testing.T) {
	s := NewSet()
	s.Commit(Update{Series: NewCounter("loads.total"), Delta: 42}, Update{Series: NewHistogram("load.ms"), Sample: 1500})
	s.SetGauge("budget.used", 0.1)
	var b strings.Builder
	s.Render(&b)
	out := b.String()
	for _, want := range []string{"counters:", "loads.total", "42", "gauges:", "budget.used", "histograms:", "load.ms", "n=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

// TestRenderLargeGauges: %.3f printed multi-gigabyte byte counts as
// 13-digit walls; %.6g must keep them readable and keep small gauges
// exact.
func TestRenderLargeGauges(t *testing.T) {
	s := NewSet()
	s.SetGauge("mem.peak_bytes", 12_345_678_901)
	s.SetGauge("budget.used", 0.25)
	var b strings.Builder
	s.Render(&b)
	out := b.String()
	if !strings.Contains(out, "1.23457e+10") {
		t.Errorf("large gauge not rendered in %%.6g form:\n%s", out)
	}
	if strings.Contains(out, "12345678901.000") {
		t.Errorf("large gauge still fixed-point mangled:\n%s", out)
	}
	if !strings.Contains(out, "0.25") {
		t.Errorf("small gauge lost precision:\n%s", out)
	}
}

// inc adds delta to a counter through a one-off Series.
func inc(s *Set, name string, delta int64, labels ...Label) {
	s.Commit(Update{Series: NewCounter(name, labels...), Delta: delta})
}

func TestLabeledSeries(t *testing.T) {
	s := NewSet()
	inc(s, "http.requests", 1, Label{"code", "200"}, Label{"method", "GET"})
	// Same labels in the other order must hit the same series.
	inc(s, "http.requests", 2, Label{"method", "GET"}, Label{"code", "200"})
	inc(s, "http.requests", 5, Label{"code", "404"}, Label{"method", "GET"})
	inc(s, "http.requests", 7) // unlabeled series is distinct

	snap := s.Snapshot()
	key := `http.requests{code="200",method="GET"}`
	if got := s.Counter(key); got != 3 {
		t.Errorf("labeled counter = %d, want 3", got)
	}
	if got := snap.Counters["http.requests"]; got != 7 {
		t.Errorf("unlabeled counter = %d, want 7", got)
	}
	if snap.Counters[key] != 3 {
		t.Errorf("canonical key %q = %d, want 3; keys: %v", key, snap.Counters[key], snap.Counters)
	}
	id := snap.id(key)
	if id.name != "http.requests" || len(id.labels) != 2 || id.labels[0].Key != "code" {
		t.Errorf("series identity = %+v", id)
	}

	s.Commit(Update{Series: NewHistogram("latency.ms", Label{"route", "/v1/list"}), Sample: 12})
	snap = s.Snapshot()
	if snap.Histograms[`latency.ms{route="/v1/list"}`].Count != 1 {
		t.Errorf("labeled histogram missing: %v", snap.Histograms)
	}
}

func TestSeriesKeyEscaping(t *testing.T) {
	key, _ := seriesKey("m", []Label{{"k", "a\"b\\c\nd"}})
	if key != `m{k="a\"b\\c\nd"}` {
		t.Errorf("escaped key = %q", key)
	}
}

// TestSnapshotBuckets: the per-Snapshot precomputed bucket slice must be
// sorted, non-cumulative, and consistent with the quantiles.
func TestSnapshotBuckets(t *testing.T) {
	s := NewSet()
	x := NewHistogram("x")
	for _, v := range []float64{0, 0.5, 3, 3, 700, 12000} {
		s.Commit(Update{Series: x, Sample: v})
	}
	h := s.Snapshot().Histograms["x"]
	if len(h.Buckets) == 0 {
		t.Fatalf("no buckets in snapshot")
	}
	var total int64
	for i, b := range h.Buckets {
		total += b.Count
		if i > 0 && h.Buckets[i].Upper <= h.Buckets[i-1].Upper {
			t.Fatalf("buckets not ascending: %+v", h.Buckets)
		}
	}
	if total != h.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, h.Count)
	}
	if got := quantileFrom(h.Buckets, h.Count, h.Min, h.Max, 0.5); got != h.P50 {
		t.Fatalf("quantileFrom(p50) = %v, snapshot P50 = %v", got, h.P50)
	}
}

// BenchmarkHistSnapshot guards the satellite fix: the three quantiles of
// a snapshot share one sorted bucket slice instead of re-sorting the
// bucket map per quantile call.
func BenchmarkHistSnapshot(b *testing.B) {
	s := NewSet()
	wide := NewHistogram("wide")
	v := 1e-3
	for i := 0; i < 10000; i++ {
		s.Commit(Update{Series: wide, Sample: v})
		v *= 1.01 // ~43 decades → ~170 distinct buckets
		if v > 1e40 {
			v = 1e-3
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := s.Snapshot()
		if snap.Histograms["wide"].Count != 10000 {
			b.Fatal("bad snapshot")
		}
	}
}

// TestConcurrentAccess runs Commits and gauge updates against
// concurrent snapshots. Every snapshot must see each Commit whole: a
// Commit of a counter pair and a histogram sample shows the pair equal
// and the histogram count equal to it. And it must be one moment
// across shards: a counter y that only follows counter x, committed by
// another goroutine, must never be seen ahead of x.
func TestConcurrentAccess(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // more shards than a small box has cores
	const writers, each, chase = 8, 500, 50000
	s := NewSet()
	a, b, h := NewCounter("a"), NewCounter("b"), NewHistogram("h")
	x, y := NewCounter("x"), NewCounter("y")
	n, v := NewCounter("n"), NewHistogram("v")

	var writing, snapping sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for i := 0; i < each; i++ {
				s.Commit(Update{Series: n, Delta: 1})
				s.Commit(Update{Series: v, Sample: float64(i)})
				s.SetGauge("g", float64(i))
				s.Commit(Update{Series: a, Delta: 1}, Update{Series: b, Delta: 1}, Update{Series: h, Sample: float64(i)})
			}
		}()
	}
	// y chases x: it commits what it has seen x commit. However their
	// Commits fall into shards, no moment has y ahead of x.
	var xs atomic.Int64
	writing.Add(2)
	go func() {
		defer writing.Done()
		for i := 1; i <= chase; i++ {
			s.Commit(Update{Series: x, Delta: 1})
			xs.Store(int64(i))
		}
	}()
	go func() {
		defer writing.Done()
		for seen := int64(0); seen < chase; {
			if n := xs.Load(); n > seen {
				s.Commit(Update{Series: y, Delta: n - seen})
				seen = n
			} else {
				runtime.Gosched()
			}
		}
	}()
	done := make(chan struct{})
	var bad atomic.Value // the first inconsistent snapshot, described
	for r := 0; r < 2; r++ {
		snapping.Add(1)
		go func() {
			defer snapping.Done()
			for {
				snap := s.Snapshot()
				c := snap.Counters
				if c["a"] != c["b"] || snap.Histograms["h"].Count != c["a"] {
					bad.CompareAndSwap(nil, fmt.Sprintf("a=%d b=%d h.count=%d", c["a"], c["b"], snap.Histograms["h"].Count))
				}
				if c["y"] > c["x"] {
					bad.CompareAndSwap(nil, fmt.Sprintf("x=%d y=%d", c["x"], c["y"]))
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	writing.Wait()
	close(done)
	snapping.Wait()
	if v := bad.Load(); v != nil {
		t.Errorf("a snapshot saw part of the Commits: %s", v)
	}

	snap := s.Snapshot()
	for key, want := range map[string]int64{"n": writers * each, "a": writers * each, "b": writers * each, "x": chase, "y": chase} {
		if got := snap.Counters[key]; got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
		if got := s.Counter(key); got != want {
			t.Errorf("Counter(%s) = %d, want %d", key, got, want)
		}
	}
	for key, want := range map[string]int64{"v": writers * each, "h": writers * each} {
		if got := snap.Histograms[key].Count; got != want {
			t.Errorf("histogram %s count = %d, want %d", key, got, want)
		}
	}
}
