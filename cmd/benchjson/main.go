// Command benchjson converts `go test -bench` text output into a JSON
// document keyed by benchmark name, for machine-readable CI artifacts:
//
//	go test -bench=. -benchtime=1x -run='^$' . | tee bench.txt
//	benchjson -o BENCH_ci.json bench.txt
//
// Input comes from the file argument or stdin. Lines that are not
// benchmark results (pass/fail banners, goos/goarch headers) are
// ignored, so the raw `go test` stream can be piped in unfiltered — but
// a line that starts a benchmark result and then fails to parse is an
// error, not a skip: a truncated or corrupted bench.txt must fail the
// pipeline loudly instead of publishing an empty or partial artifact.
//
// Comparison mode diffs two previously-written artifacts:
//
//	benchjson -old BENCH_main.json -new BENCH_pr.json -tol 0.10
//
// It prints per-benchmark ns/op, allocs/op, and custom-metric deltas
// and exits 1 when any benchmark regresses beyond its fractional
// tolerance (default +10%; -tol-allocs and -tol-extra override the
// allocs/op and b.ReportMetric tolerances separately). A metric that
// beats its baseline by more than its tolerance is listed as STALE: the
// baseline no longer bounds it, so a regression back to the old value
// would pass. Staleness does not fail the comparison; re-record the
// baseline. Benchmarks present on only one side are reported but are
// not regressions — renames must not mask or fabricate a slowdown.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Result is one benchmark line's parsed metrics. Iterations and ns/op
// are always present; B/op and allocs/op only when the benchmark
// reports allocations. Extra holds custom b.ReportMetric values keyed
// by unit (e.g. "retained-B/op") — gated in comparison mode under
// -tol-extra when both artifacts report the unit.
type Result struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *int64             `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	MBPerSec    *float64           `json:"mb_per_sec,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// procsSuffix is the -GOMAXPROCS tail the testing package appends to
// benchmark names. It is stripped before keying so a baseline recorded
// on one machine compares against a run on another with a different
// core count (BenchmarkFoo-4 and BenchmarkFoo-16 are the same bench).
var procsSuffix = regexp.MustCompile(`-\d+$`)

// benchStart recognizes a line that claims to be a benchmark result:
// the testing package always prints "Benchmark<Name>[-procs]<TAB>". Such
// lines must parse fully or the input is corrupt.
var benchStart = regexp.MustCompile(`^Benchmark\w+(?:-\d+)?\s`)

// parseBench reads a `go test -bench` stream and returns results keyed
// by benchmark name. It is strict where it matters: malformed metric
// fields on a benchmark line and inputs with no benchmark lines at all
// are errors. A name that appears more than once (go test -count=N)
// keeps the best of its samples (see bestOf), so gating on a best-of-N
// is the default rather than a flag.
func parseBench(in io.Reader) (map[string]Result, error) {
	results := make(map[string]Result)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if !benchStart.MatchString(line) {
			continue
		}
		name, r, err := parseBenchFields(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v: %q", lineNo, err, strings.TrimSpace(line))
		}
		if prev, dup := results[name]; dup {
			r = bestOf(prev, r)
		}
		results[name] = r
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found in input")
	}
	return results, nil
}

// bestOf merges two samples of one benchmark. It keeps the sample with
// the lower ns/op — the less scheduler-disturbed run — and, each on its
// own, the lower allocs/op and the lower B/op of the two. Allocation
// counts are not identical across samples: at -benchtime 1x a sample
// also counts what the runtime allocates while it runs, such as a GC
// cycle that starts inside the op (BenchmarkToplistWeek read 3, 5 or 6
// allocs/op until it collected before its timer). The minimum is the
// benchmark's own count, and a real allocation regression raises every
// sample's.
func bestOf(a, b Result) Result {
	best := a
	if b.NsPerOp < a.NsPerOp {
		best = b
	}
	best.AllocsPerOp = minOf(a.AllocsPerOp, b.AllocsPerOp)
	best.BytesPerOp = minOf(a.BytesPerOp, b.BytesPerOp)
	return best
}

// minOf returns the lower of two optional counts, or the one present.
func minOf(a, b *int64) *int64 {
	if a == nil || (b != nil && *b < *a) {
		return b
	}
	return a
}

// parseBenchFields parses one benchmark result line as whitespace-split
// fields: the name, the iteration count, then (value, unit) pairs in
// whatever order the testing package emits them. Standard units fill
// the typed Result fields; custom b.ReportMetric units land in Extra,
// so benchmarks can publish metrics like "retained-B/op" without
// breaking the standard ones that follow on the line.
func parseBenchFields(line string) (string, Result, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || (len(fields)-2)%2 != 0 {
		return "", Result{}, fmt.Errorf("malformed benchmark result")
	}
	name := procsSuffix.ReplaceAllString(fields[0], "")
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		if _, ferr := strconv.ParseFloat(fields[1], 64); ferr != nil {
			return "", Result{}, fmt.Errorf("malformed benchmark result (bad iteration count %q)", fields[1])
		}
		return "", Result{}, fmt.Errorf("bad iteration count %q", fields[1])
	}
	r := Result{Iterations: iters}
	sawNs := false
	for i := 2; i < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return "", Result{}, fmt.Errorf("bad ns/op %q", val)
			}
			r.NsPerOp, sawNs = v, true
		case "MB/s":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return "", Result{}, fmt.Errorf("bad MB/s %q", val)
			}
			r.MBPerSec = &v
		case "B/op":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return "", Result{}, fmt.Errorf("bad B/op %q", val)
			}
			r.BytesPerOp = &v
		case "allocs/op":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return "", Result{}, fmt.Errorf("bad allocs/op %q", val)
			}
			r.AllocsPerOp = &v
		default:
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return "", Result{}, fmt.Errorf("malformed benchmark result (bad metric %q %q)", val, unit)
			}
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[unit] = v
		}
	}
	if !sawNs {
		return "", Result{}, fmt.Errorf("malformed benchmark result (no ns/op)")
	}
	return name, r, nil
}

// Delta is one benchmark's old→new comparison. Changes are fractional:
// +0.05 is five percent slower (or more allocations). AllocsChange is
// nil when either side did not report allocations. Extra compares
// custom b.ReportMetric units present on both sides, unit-sorted.
type Delta struct {
	Name         string
	OldNs, NewNs float64
	NsChange     float64
	OldAllocs    *int64
	NewAllocs    *int64
	AllocsChange *float64
	Extra        []ExtraDelta
	Regressed    bool
	Stale        []Stale
}

// Stale is one metric of a benchmark that beats its baseline by more
// than its tolerance: ns/op, allocs/op, or a custom unit.
type Stale struct {
	Metric   string
	Old, New float64
	Change   float64
}

// ExtraDelta is one custom metric's old→new comparison. A unit present
// on only one side is not compared: a benchmark that starts or stops
// reporting a metric is a code change, not a regression.
type ExtraDelta struct {
	Unit      string
	Old, New  float64
	Change    float64
	Regressed bool
}

// fracChange returns (new-old)/old, treating a zero baseline specially:
// zero→zero is no change, zero→anything is an infinite regression (a
// benchmark that did nothing now does something).
func fracChange(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (new - old) / old
}

// compare diffs two artifacts benchmark-by-benchmark. Deltas come back
// sorted by name; added and removed list benchmarks present on only one
// side. regressed is true when any delta exceeds tolNs on ns/op,
// tolAllocs on allocs/op, or tolExtra on a custom metric reported by
// both sides; a metric that falls by more than its tolerance is listed
// in its delta's Stale, and is not a regression. The tolerances are separate because the metrics have very
// different noise floors: ns/op varies with machine and load, allocs/op
// is deterministic for the same code, and custom metrics (e.g.
// retained-B/op) sit in between — deterministic counts but sensitive to
// runtime internals like map growth, so they get their own knob.
func compare(old, new map[string]Result, tolNs, tolAllocs, tolExtra float64) (deltas []Delta, added, removed []string, regressed bool) {
	names := make([]string, 0, len(old))
	for name := range old {
		if _, ok := new[name]; ok {
			names = append(names, name)
		} else {
			removed = append(removed, name)
		}
	}
	for name := range new {
		if _, ok := old[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(names)
	sort.Strings(added)
	sort.Strings(removed)

	for _, name := range names {
		o, n := old[name], new[name]
		d := Delta{
			Name:      name,
			OldNs:     o.NsPerOp,
			NewNs:     n.NsPerOp,
			NsChange:  fracChange(o.NsPerOp, n.NsPerOp),
			OldAllocs: o.AllocsPerOp,
			NewAllocs: n.AllocsPerOp,
		}
		if o.AllocsPerOp != nil && n.AllocsPerOp != nil {
			c := fracChange(float64(*o.AllocsPerOp), float64(*n.AllocsPerOp))
			d.AllocsChange = &c
		}
		units := make([]string, 0, len(o.Extra))
		for unit := range o.Extra {
			if _, ok := n.Extra[unit]; ok {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			e := ExtraDelta{Unit: unit, Old: o.Extra[unit], New: n.Extra[unit]}
			e.Change = fracChange(e.Old, e.New)
			e.Regressed = e.Change > tolExtra
			d.Extra = append(d.Extra, e)
		}
		d.Regressed = d.NsChange > tolNs || (d.AllocsChange != nil && *d.AllocsChange > tolAllocs)
		if d.NsChange < -tolNs {
			d.Stale = append(d.Stale, Stale{"ns/op", o.NsPerOp, n.NsPerOp, d.NsChange})
		}
		if d.AllocsChange != nil && *d.AllocsChange < -tolAllocs {
			d.Stale = append(d.Stale, Stale{"allocs/op", float64(*o.AllocsPerOp), float64(*n.AllocsPerOp), *d.AllocsChange})
		}
		for _, e := range d.Extra {
			if e.Regressed {
				d.Regressed = true
			}
			if e.Change < -tolExtra {
				d.Stale = append(d.Stale, Stale{e.Unit, e.Old, e.New, e.Change})
			}
		}
		if d.Regressed {
			regressed = true
		}
		deltas = append(deltas, d)
	}
	return deltas, added, removed, regressed
}

// readArtifact loads a JSON document previously written by benchjson.
func readArtifact(path string) (map[string]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]Result
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in artifact", path)
	}
	return m, nil
}

// renderDeltas prints the comparison table plus added/removed notes.
func renderDeltas(w io.Writer, deltas []Delta, added, removed []string) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "benchmark\told ns/op\tnew ns/op\tdelta\tallocs delta\t")
	for _, d := range deltas {
		allocs := "n/a"
		if d.AllocsChange != nil {
			allocs = fmt.Sprintf("%+.1f%%", *d.AllocsChange*100)
		}
		mark := ""
		if d.Regressed {
			mark = "  REGRESSION"
		} else if len(d.Stale) > 0 {
			mark = "  STALE"
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%+.1f%%\t%s\t%s\n",
			d.Name, d.OldNs, d.NewNs, d.NsChange*100, allocs, mark)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, d := range deltas {
		for _, e := range d.Extra {
			mark := ""
			if e.Regressed {
				mark = "  REGRESSION"
			}
			fmt.Fprintf(w, "extra: %s %s %.0f -> %.0f (%+.1f%%)%s\n",
				d.Name, e.Unit, e.Old, e.New, e.Change*100, mark)
		}
	}
	for _, d := range deltas {
		for _, st := range d.Stale {
			fmt.Fprintf(w, "stale: %s %s %.6g -> %.6g (%+.1f%%)  STALE: beats its baseline beyond tolerance; re-record it\n",
				d.Name, st.Metric, st.Old, st.New, st.Change*100)
		}
	}
	for _, name := range added {
		fmt.Fprintf(w, "added: %s (no baseline)\n", name)
	}
	for _, name := range removed {
		fmt.Fprintf(w, "removed: %s (was in baseline)\n", name)
	}
	return nil
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	oldFile := flag.String("old", "", "comparison mode: baseline benchjson artifact")
	newFile := flag.String("new", "", "comparison mode: candidate benchjson artifact")
	tol := flag.Float64("tol", 0.10, "comparison mode: fractional regression tolerance on ns/op")
	tolAllocs := flag.Float64("tol-allocs", -1, "comparison mode: fractional tolerance on allocs/op (default: same as -tol)")
	tolExtra := flag.Float64("tol-extra", -1, "comparison mode: fractional tolerance on custom metrics (default: same as -tol)")
	flag.Parse()

	if (*oldFile == "") != (*newFile == "") {
		fatal(fmt.Errorf("-old and -new must be given together"))
	}
	if *tolAllocs < 0 {
		*tolAllocs = *tol
	}
	if *tolExtra < 0 {
		*tolExtra = *tol
	}
	if *oldFile != "" {
		oldRes, err := readArtifact(*oldFile)
		fatal(err)
		newRes, err := readArtifact(*newFile)
		fatal(err)
		deltas, added, removed, regressed := compare(oldRes, newRes, *tol, *tolAllocs, *tolExtra)

		w := io.Writer(os.Stdout)
		if *out != "" {
			f, err := os.Create(*out)
			fatal(err)
			defer f.Close()
			w = f
		}
		fatal(renderDeltas(w, deltas, added, removed))
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks compared, tolerance %+.1f%% ns/op, %+.1f%% allocs/op, %+.1f%% extra\n",
			len(deltas), *tol*100, *tolAllocs*100, *tolExtra*100)
		stale := 0
		for _, d := range deltas {
			stale += len(d.Stale)
		}
		if stale > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d metrics beat their baseline beyond tolerance (STALE): re-record it\n", stale)
		}
		if regressed {
			fmt.Fprintln(os.Stderr, "benchjson: regression beyond tolerance")
			os.Exit(1)
		}
		return
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		fatal(err)
		defer f.Close()
		in = f
	}

	results, err := parseBench(in)
	fatal(err)

	enc, err := json.MarshalIndent(results, "", "  ")
	fatal(err)
	enc = append(enc, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(enc)
	} else {
		err = os.WriteFile(*out, enc, 0o644)
	}
	fatal(err)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
