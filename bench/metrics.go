package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The end-to-end and
// per-layer tables below are the emission order and must match the
// metric lists in BENCHMARK.json (bench_test checks that they do).
type metricDef struct {
	name, unit string
}

// endToEnd metrics are what a user of the system sees. Every workload
// reports every one of them, and none is ever zero.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"rss_mb", "MB"},
}

// perLayer metrics split the end-to-end cost by layer. A layer a
// workload never enters reports 0.
var perLayer = []metricDef{
	{"setup.toplist_s", "s"},
	{"setup.webgen_s", "s"},
	{"setup.search_s", "s"},
	{"setup.hispar_s", "s"},
	{"setup.study_s", "s"},

	{"webgen.build_us", "us"},
	{"webgen.build_allocs", "count"},
	{"webgen.lookup_us", "us"},
	{"webgen.share", "share"},

	{"browser.new_us", "us"},
	{"browser.load_us", "us"},
	{"browser.load_allocs", "count"},
	{"browser.share", "share"},
	{"browser.cache_hits_per_page", "count"},
	{"browser.revalidations_per_page", "count"},
	{"browser.attempts_per_page", "count"},
	{"browser.failed_loads", "count"},

	{"core.measure_us", "us"},
	{"core.measure_allocs", "count"},
	{"core.measure_share", "share"},
	{"core.fold_us", "us"},
	{"core.sink_us", "us"},
	{"core.fold_share", "share"},
	{"core.sink_share", "share"},
	{"core.retries_per_page", "count"},

	{"engine.worker_util", "share"},
	{"engine.window_max", "count"},
	{"failed_share", "share"},

	{"hisparserve.site_304_us", "us"},
	{"hisparserve.site_200_us", "us"},
	{"hisparserve.list_200_us", "us"},
	{"hisparserve.revalidated_share", "share"},
	{"hisparserve.gzip_share", "share"},
	{"hisparserve.payload_builds", "count"},
	{"serve.p50_us", "us"},
	{"serve.p99_us", "us"},
	{"serve.tail_us", "us"},
	{"serve.samples", "count"},

	{"runtime.peak_rss_mb", "MB"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.alloc_kb_per_op", "KB"},

	{"trace.coverage", "share"},
	{"trace.overhead", "ratio"},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a -record file: a run's result plus what it ran,
// so that -compare can group runs by workload.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	SHA256   string `json:"output_sha256"`
	Result   result `json:"result"`
}

// report is everything one workload run measured and checked.
type report struct {
	values    map[string]float64
	attempted int64
	failed    int64
	sha256    string
	problems  []string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

// fail records a failed output check; any failed check makes the run
// incorrect.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// result selects the metric set for the mode: end-to-end metrics for
// untraced runs, per-layer metrics for traced ones. An end-to-end metric
// that is not a positive finite number is itself a failed check.
func (r *report) result(traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v := r.values[d.name]
		if !traced && (v <= 0 || math.IsInf(v, 0) || math.IsNaN(v)) {
			r.fail("end-to-end metric %s = %v, want a positive number", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	res.Correct = len(r.problems) == 0
	return res
}

// printSummary writes every metric the run produced, one per line, for a
// human reader.
func (r *report) printSummary(w io.Writer, workload string) {
	units := make(map[string]string)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	names := make([]string, 0, len(r.values))
	for name := range r.values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: attempted %d, failed %d, output_sha256 %s\n", workload, r.attempted, r.failed, r.sha256)
	for _, name := range names {
		fmt.Fprintf(w, "  %-34s %14s %s\n", name, strconv.FormatFloat(r.values[name], 'g', 6, 64), units[name])
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}

// writeResult prints the result object as one JSON line.
func writeResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// appendRecord appends one run to a -record file.
func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// rssSampler averages the resident set size over the timed work,
// sampling every rssInterval during each call to during. The peak
// (VmHWM) of a Go process with a small live heap swings by ±15% between
// identical runs with GC timing; the time average repeats within a few
// percent.
type rssSampler struct {
	sum float64 // MB, summed over samples
	n   int
	err error
}

const rssInterval = 50 * time.Millisecond

// during runs fn while sampling, and returns once the sampler has exited.
func (s *rssSampler) during(fn func()) {
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tk := time.NewTicker(rssInterval) //detlint:allow walltime -- sampling cadence of the benchmark's memory report; no program output depends on it
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				mb, err := rssMB()
				if err != nil {
					s.err = err
					return
				}
				s.sum += mb
				s.n++
			}
		}
	}()
	fn()
	close(stop)
	<-stopped
}

// mean returns the average of every sample taken.
func (s *rssSampler) mean() (float64, error) {
	if s.err != nil {
		return 0, s.err
	}
	if s.n == 0 {
		// Work shorter than one interval: one reading stands for it.
		return rssMB()
	}
	return s.sum / float64(s.n), nil
}

// rssMB reads the current resident set size in MB.
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("parse /proc/self/statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	_, m, _ := quartiles(xs)
	return m
}
