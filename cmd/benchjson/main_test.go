package main

import (
	"math"
	"sort"
	"strings"
	"testing"
)

const goodInput = `goos: linux
goarch: amd64
pkg: repro
BenchmarkColdLoad-8   	     124	   9612340 ns/op	  513678 B/op	    1290 allocs/op
BenchmarkWarmLoad-8   	     250	   4806170 ns/op
BenchmarkThroughput-8 	     100	   1000000 ns/op	 512.00 MB/s
PASS
ok  	repro	2.301s
`

func TestParseBench(t *testing.T) {
	res, err := parseBench(strings.NewReader(goodInput))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3: %v", len(res), res)
	}
	cold := res["BenchmarkColdLoad"]
	if cold.Iterations != 124 || cold.NsPerOp != 9612340 {
		t.Errorf("cold = %+v", cold)
	}
	if cold.BytesPerOp == nil || *cold.BytesPerOp != 513678 {
		t.Errorf("cold B/op = %v", cold.BytesPerOp)
	}
	if cold.AllocsPerOp == nil || *cold.AllocsPerOp != 1290 {
		t.Errorf("cold allocs/op = %v", cold.AllocsPerOp)
	}
	warm := res["BenchmarkWarmLoad"]
	if warm.BytesPerOp != nil || warm.AllocsPerOp != nil {
		t.Errorf("warm must not carry alloc metrics: %+v", warm)
	}
	tp := res["BenchmarkThroughput"]
	if tp.MBPerSec == nil || *tp.MBPerSec != 512 {
		t.Errorf("throughput MB/s = %v", tp.MBPerSec)
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := []struct {
		name, input, wantErr string
	}{
		{"empty", "", "no benchmark result lines"},
		{"banners only", "goos: linux\nPASS\nok  \trepro\t1.0s\n", "no benchmark result lines"},
		{"truncated line", "BenchmarkColdLoad-8   \t     124\n", "malformed benchmark result"},
		{"garbage metrics", "BenchmarkColdLoad-8 \tfast\tvery ns/op\n", "malformed benchmark result"},
		{"overflow iterations", "BenchmarkA-8 \t 99999999999999999999\t 5.0 ns/op\n", "bad iteration count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseBench(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("parse accepted malformed input %q", tc.input)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func i64(v int64) *int64 { return &v }

// TestFracChange pins the delta math, including the zero-baseline edge
// cases (zero→zero is flat, zero→positive is an infinite regression).
func TestFracChange(t *testing.T) {
	cases := []struct {
		old, new, want float64
	}{
		{100, 110, 0.10},
		{100, 90, -0.10},
		{100, 100, 0},
		{0, 0, 0},
		{0, 5, math.Inf(1)},
	}
	for _, tc := range cases {
		got := fracChange(tc.old, tc.new)
		if math.Abs(got-tc.want) > 1e-12 && !(math.IsInf(got, 1) && math.IsInf(tc.want, 1)) {
			t.Errorf("fracChange(%v, %v) = %v, want %v", tc.old, tc.new, got, tc.want)
		}
	}
}

// TestCompare covers the comparison semantics: ns/op regression beyond
// tolerance fails, within tolerance passes, an allocs/op jump fails even
// when ns/op improves, and one-sided benchmarks are reported as
// added/removed rather than regressions.
func TestCompare(t *testing.T) {
	old := map[string]Result{
		"BenchmarkSlow-8":    {Iterations: 10, NsPerOp: 100},
		"BenchmarkOK-8":      {Iterations: 10, NsPerOp: 100},
		"BenchmarkAllocs-8":  {Iterations: 10, NsPerOp: 100, AllocsPerOp: i64(10)},
		"BenchmarkRemoved-8": {Iterations: 10, NsPerOp: 100},
	}
	new := map[string]Result{
		"BenchmarkSlow-8":   {Iterations: 10, NsPerOp: 125},                      // +25% ns/op: regression
		"BenchmarkOK-8":     {Iterations: 10, NsPerOp: 105},                      // +5%: within tolerance
		"BenchmarkAllocs-8": {Iterations: 10, NsPerOp: 90, AllocsPerOp: i64(20)}, // faster but 2× allocs
		"BenchmarkAdded-8":  {Iterations: 10, NsPerOp: 50},
	}
	deltas, added, removed, regressed := compare(old, new, 0.10, 0.10, 0.10)
	if !regressed {
		t.Fatal("expected a regression")
	}
	if len(deltas) != 3 {
		t.Fatalf("deltas = %d, want 3 (%+v)", len(deltas), deltas)
	}
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if d := byName["BenchmarkSlow-8"]; !d.Regressed || math.Abs(d.NsChange-0.25) > 1e-12 {
		t.Errorf("Slow = %+v", d)
	}
	if d := byName["BenchmarkOK-8"]; d.Regressed {
		t.Errorf("OK must be within tolerance: %+v", d)
	}
	if d := byName["BenchmarkAllocs-8"]; !d.Regressed || d.AllocsChange == nil || math.Abs(*d.AllocsChange-1.0) > 1e-12 {
		t.Errorf("Allocs = %+v", d)
	}
	if len(added) != 1 || added[0] != "BenchmarkAdded-8" {
		t.Errorf("added = %v", added)
	}
	if len(removed) != 1 || removed[0] != "BenchmarkRemoved-8" {
		t.Errorf("removed = %v", removed)
	}
	// Deltas are name-sorted for deterministic artifacts.
	if !sort.SliceIsSorted(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name }) {
		t.Errorf("deltas not sorted: %+v", deltas)
	}
}

// TestCompareCleanPass asserts the no-regression path reports nothing.
func TestCompareCleanPass(t *testing.T) {
	res := map[string]Result{"BenchmarkA-8": {Iterations: 1, NsPerOp: 100, AllocsPerOp: i64(5)}}
	deltas, added, removed, regressed := compare(res, res, 0.10, 0.10, 0.10)
	if regressed || len(added) != 0 || len(removed) != 0 {
		t.Fatalf("self-comparison must be clean: %+v %v %v", deltas, added, removed)
	}
	if d := deltas[0]; d.NsChange != 0 || *d.AllocsChange != 0 {
		t.Errorf("self-delta nonzero: %+v", d)
	}
}

// TestParseBenchNormalizesProcsSuffix: a baseline written on one
// machine must compare against a run on another with a different
// GOMAXPROCS — the -N name suffix is stripped at parse time.
func TestParseBenchNormalizesProcsSuffix(t *testing.T) {
	res, err := parseBench(strings.NewReader("BenchmarkA-16 \t 2\t 7.5 ns/op\nBenchmarkB \t 1\t 3.0 ns/op\n"))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, ok := res["BenchmarkA"]; !ok {
		t.Errorf("BenchmarkA-16 not normalized: %v", res)
	}
	if _, ok := res["BenchmarkB"]; !ok {
		t.Errorf("suffix-free BenchmarkB lost: %v", res)
	}
}

// TestParseBenchBestOfN: `go test -count=N` repeats each benchmark; the
// parser must keep the lowest-ns/op sample per name (the least
// scheduler-disturbed run), regardless of which count order the samples
// arrive in, including across differing -procs suffixes.
func TestParseBenchBestOfN(t *testing.T) {
	input := "BenchmarkA-8 \t 1\t 9.0 ns/op\t 12 allocs/op\n" +
		"BenchmarkA-8 \t 1\t 5.0 ns/op\t 12 allocs/op\n" +
		"BenchmarkA-8 \t 1\t 7.0 ns/op\t 12 allocs/op\n" +
		"BenchmarkB-8 \t 1\t 4.0 ns/op\n" +
		"BenchmarkB-16 \t 1\t 6.0 ns/op\n"
	res, err := parseBench(strings.NewReader(input))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2: %v", len(res), res)
	}
	a := res["BenchmarkA"]
	if a.NsPerOp != 5.0 {
		t.Errorf("best-of-3 ns/op = %v, want 5.0", a.NsPerOp)
	}
	if a.AllocsPerOp == nil || *a.AllocsPerOp != 12 {
		t.Errorf("allocs/op = %v, want 12", a.AllocsPerOp)
	}
	if b := res["BenchmarkB"]; b.NsPerOp != 4.0 {
		t.Errorf("min across normalized proc suffixes = %v, want 4.0", b.NsPerOp)
	}
}

// TestParseBenchMinAllocs: allocs/op and B/op vary between samples of
// one benchmark (the runtime's own allocations land in a 1x sample), so
// each keeps its minimum over the samples, whichever sample has the
// lowest ns/op, in either order.
func TestParseBenchMinAllocs(t *testing.T) {
	fast := "BenchmarkW-2 \t 1\t 30 ns/op\t 1007712 B/op\t 5 allocs/op\n"
	slow := "BenchmarkW-2 \t 1\t 40 ns/op\t 1007640 B/op\t 3 allocs/op\n"
	for _, input := range []string{fast + slow, slow + fast} {
		res, err := parseBench(strings.NewReader(input))
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		w := res["BenchmarkW"]
		if w.NsPerOp != 30 {
			t.Errorf("ns/op = %v, want the lower 30", w.NsPerOp)
		}
		if w.AllocsPerOp == nil || *w.AllocsPerOp != 3 {
			t.Errorf("allocs/op = %v, want the lower 3", w.AllocsPerOp)
		}
		if w.BytesPerOp == nil || *w.BytesPerOp != 1007640 {
			t.Errorf("B/op = %v, want the lower 1007640", w.BytesPerOp)
		}
	}
}

// TestParseBenchCustomMetrics: b.ReportMetric units appear between
// ns/op and the -benchmem columns; they must land in Extra without
// corrupting B/op or allocs/op parsing.
func TestParseBenchCustomMetrics(t *testing.T) {
	input := "BenchmarkStream-4 \t 1\t 123456 ns/op\t 98304 retained-B/op\t 513678 B/op\t 1290 allocs/op\n"
	res, err := parseBench(strings.NewReader(input))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	r := res["BenchmarkStream"]
	if r.NsPerOp != 123456 {
		t.Errorf("ns/op = %v", r.NsPerOp)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 513678 {
		t.Errorf("B/op = %v", r.BytesPerOp)
	}
	if r.AllocsPerOp == nil || *r.AllocsPerOp != 1290 {
		t.Errorf("allocs/op = %v", r.AllocsPerOp)
	}
	if r.Extra["retained-B/op"] != 98304 {
		t.Errorf("extra = %v", r.Extra)
	}
}

// TestCompareSplitTolerance: allocs/op is deterministic for the same
// code, so the gate can hold it much tighter than the noisy ns/op.
func TestCompareSplitTolerance(t *testing.T) {
	old := map[string]Result{"BenchmarkA": {Iterations: 1, NsPerOp: 100, AllocsPerOp: i64(100)}}
	new := map[string]Result{"BenchmarkA": {Iterations: 1, NsPerOp: 118, AllocsPerOp: i64(108)}}
	// +18% ns within the generous 25%; +8% allocs breaches the tight 5%.
	if _, _, _, regressed := compare(old, new, 0.25, 0.05, 0.10); !regressed {
		t.Error("8% allocs growth must fail a 5% allocs tolerance")
	}
	// Both within their own tolerances passes, even though allocs growth
	// would breach the ns tolerance if they shared one.
	new["BenchmarkA"] = Result{Iterations: 1, NsPerOp: 118, AllocsPerOp: i64(103)}
	if _, _, _, regressed := compare(old, new, 0.25, 0.05, 0.10); regressed {
		t.Error("deltas within split tolerances must pass")
	}
}

// TestCompareExtraMetrics: custom b.ReportMetric units present in both
// artifacts are gated under their own tolerance; one-sided units are
// ignored rather than treated as regressions.
func TestCompareExtraMetrics(t *testing.T) {
	old := map[string]Result{"BenchmarkA": {
		Iterations: 1, NsPerOp: 100,
		Extra: map[string]float64{"retained-B/op": 1000, "old-only/op": 7},
	}}
	grew := map[string]Result{"BenchmarkA": {
		Iterations: 1, NsPerOp: 100,
		Extra: map[string]float64{"retained-B/op": 1300, "new-only/op": 9},
	}}
	deltas, _, _, regressed := compare(old, grew, 0.10, 0.10, 0.20)
	if !regressed {
		t.Fatal("+30% retained-B/op must breach a 20% extra tolerance")
	}
	d := deltas[0]
	if len(d.Extra) != 1 || d.Extra[0].Unit != "retained-B/op" {
		t.Fatalf("extras must cover shared units only, got %+v", d.Extra)
	}
	if e := d.Extra[0]; !e.Regressed || math.Abs(e.Change-0.30) > 1e-12 {
		t.Errorf("retained delta = %+v", e)
	}
	// Within tolerance — and a shrink — passes.
	grew["BenchmarkA"] = Result{
		Iterations: 1, NsPerOp: 100,
		Extra: map[string]float64{"retained-B/op": 900},
	}
	if _, _, _, regressed := compare(old, grew, 0.10, 0.10, 0.20); regressed {
		t.Error("-10% retained-B/op must pass")
	}
}

// TestParseBenchIgnoresProse ensures non-benchmark lines — including
// b.Log output that happens to mention benchmarks mid-line — never
// trigger the strict path.
func TestParseBenchIgnoresProse(t *testing.T) {
	input := "some log: Benchmark results below\nBenchmarkA-8 \t 2\t 7.5 ns/op\n"
	res, err := parseBench(strings.NewReader(input))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if r := res["BenchmarkA"]; r.Iterations != 2 || r.NsPerOp != 7.5 {
		t.Errorf("got %+v", r)
	}
}

// TestCompareStale: a metric that beats its baseline by more than its
// tolerance is listed STALE, each of ns/op, allocs/op and a custom unit
// under its own tolerance, and staleness does not fail the comparison.
func TestCompareStale(t *testing.T) {
	old := map[string]Result{
		"BenchmarkFaster": {Iterations: 1, NsPerOp: 100, AllocsPerOp: i64(10),
			Extra: map[string]float64{"retained-B/op": 1000}},
		"BenchmarkSame": {Iterations: 1, NsPerOp: 100, AllocsPerOp: i64(10)},
	}
	new := map[string]Result{
		"BenchmarkFaster": {Iterations: 1, NsPerOp: 50, AllocsPerOp: i64(9),
			Extra: map[string]float64{"retained-B/op": 700}},
		"BenchmarkSame": {Iterations: 1, NsPerOp: 80, AllocsPerOp: i64(10)},
	}
	deltas, _, _, regressed := compare(old, new, 0.25, 0.05, 0.20)
	if regressed {
		t.Error("a stale baseline must not fail the comparison")
	}
	var metrics []string
	for _, st := range deltas[0].Stale {
		metrics = append(metrics, st.Metric)
	}
	if got, want := strings.Join(metrics, ","), "ns/op,allocs/op,retained-B/op"; got != want {
		t.Errorf("BenchmarkFaster stale metrics %q, want %q", got, want)
	}
	if st := deltas[0].Stale[1]; st.Old != 10 || st.New != 9 || math.Abs(st.Change+0.10) > 1e-12 {
		t.Errorf("allocs/op staleness %+v", st)
	}
	if len(deltas[1].Stale) != 0 {
		t.Errorf("-20%% ns/op under a 25%% tolerance is not stale: %+v", deltas[1].Stale)
	}
	var b strings.Builder
	if err := renderDeltas(&b, deltas, nil, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"stale: BenchmarkFaster ns/op 100 -> 50 (-50.0%)  STALE",
		"stale: BenchmarkFaster allocs/op 10 -> 9 (-10.0%)  STALE",
		"stale: BenchmarkFaster retained-B/op 1000 -> 700 (-30.0%)  STALE",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "stale: BenchmarkSame") {
		t.Errorf("report lists BenchmarkSame as stale:\n%s", out)
	}
}
