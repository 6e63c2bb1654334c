package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// tiny shrinks a workload to a few sites and requests, keeping its kind.
func tiny(w workload) workload {
	w.sites, w.perSite, w.replaySites = 8, 5, 8
	if w.fetches > 0 {
		w.fetches = 2
	}
	if w.serve != nil {
		s := *w.serve
		s.sites, s.perSite, s.requests = 8, 5, 1000
		w.serve = &s
	}
	return w
}

func runTiny(t *testing.T, w workload, opt options) *report {
	t.Helper()
	var r *report
	if w.serve != nil {
		r = w.serve.runServe(opt)
	} else {
		r = w.runStudy(opt)
	}
	for _, p := range r.problems {
		t.Errorf("%s: %s", w.name, p)
	}
	return r
}

// specEntry is one workload or metric of BENCHMARK.json.
type specEntry struct {
	Name, Unit string
}

func readSpecEntries(t *testing.T) map[string][]specEntry {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []specEntry `json:"workloads"`
		EndToEnd  []specEntry `json:"end_to_end"`
		PerLayer  []specEntry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return map[string][]specEntry{
		"workloads": spec.Workloads, "end_to_end": spec.EndToEnd, "per_layer": spec.PerLayer,
	}
}

// TestSpecMatchesTables pins BENCHMARK.json to the metric tables and the
// workload list the benchmark emits.
func TestSpecMatchesTables(t *testing.T) {
	spec := readSpecEntries(t)
	check := func(key string, defs []metricDef) {
		var got, want []string
		for _, m := range spec[key] {
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, d := range defs {
			want = append(want, d.name+" "+d.unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark emits %d", key, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: BENCHMARK.json %q, benchmark %q", key, got[i], want[i])
			}
		}
	}
	check("end_to_end", endToEnd)
	check("per_layer", perLayer)
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	if len(spec["workloads"]) != len(names) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec["workloads"]), len(names))
	}
	for i, m := range spec["workloads"] {
		if i >= len(names) || m.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %v", i, m.Name, names)
		}
	}
}

// TestEveryLayerMetricSaysWhatItMoves requires the per-layer table of
// README.md to list every per-layer metric with the end-to-end metric it
// should move. BENCHMARK.json has no field for that mapping.
func TestEveryLayerMetricSaysWhatItMoves(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(b), "## Traced run and per-layer metrics")
	if !ok {
		t.Fatal("README.md has no per-layer section")
	}
	table, _, _ = strings.Cut(table, "\n## ")
	moves := make(map[string]string)
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 5 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		for _, name := range strings.Split(cells[1], ",") {
			moves[strings.Trim(strings.TrimSpace(name), "`")] = strings.TrimSpace(cells[3])
		}
	}
	for _, d := range perLayer {
		if moves[d.name] == "" {
			t.Errorf("README.md does not say what %s should move", d.name)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at a tiny size,
// traced, and checks both result objects: every metric of the mode with
// its unit, positive end-to-end values, and a trace whose spans' parents
// all resolve. The study replays also check their load and page counts
// against the engine's counters.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads() {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.json")
			r := runTiny(t, w, options{seed: 3, traced: true, tracePath: path})
			for _, traced := range []bool{false, true} {
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				res := r.result(traced)
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("traced=%v: correct %v, attempted %d, failed %d", traced, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
						t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, d.name, m, d.unit)
					}
				}
			}
			if cov := r.values["trace.coverage"]; cov <= 0 || cov > 1 {
				t.Errorf("trace.coverage = %v", cov)
			}
			checkTrace(t, path)
		})
	}
}

// checkTrace decodes a written trace and resolves every parent.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace does not decode: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no spans")
	}
	ids := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		ids[ev.Args["span_id"]] = true
	}
	for i, ev := range doc.TraceEvents {
		if p, ok := ev.Args["parent_id"]; ok && !ids[p] {
			t.Fatalf("event %d: parent %s resolves to no span", i, p)
		}
	}
}

// TestStudyOutputDeterministic runs a tiny study on two fresh corpora and
// requires the same output digest from both.
func TestStudyOutputDeterministic(t *testing.T) {
	w, err := workloadByName("h500-faults")
	if err != nil {
		t.Fatal(err)
	}
	w = tiny(w)
	var digests []string
	for i := 0; i < 2; i++ {
		c, _, err := buildCorpus(5, studyShape(w.sites, w.perSite))
		if err != nil {
			t.Fatal(err)
		}
		st, _, err := newStudy(c.web, w.studyConfig(5, workers))
		if err != nil {
			t.Fatal(err)
		}
		r := newReport()
		u := w.runStudyUnit(st, c.list, r)
		for _, p := range r.problems {
			t.Error(p)
		}
		digests = append(digests, u.digest)
	}
	if digests[0] == "" || digests[0] != digests[1] {
		t.Fatalf("digests %q", digests)
	}
}

// TestCorruptBodyFailsETagCheck serves the list in both encodings and
// requires the ETag check to accept the bodies as served and reject them
// with one byte changed.
func TestCorruptBodyFailsETagCheck(t *testing.T) {
	w, err := workloadByName("serve-zipf")
	if err != nil {
		t.Fatal(err)
	}
	s := *tiny(w).serve
	s.sites = 200 // a list CSV large enough to get a gzip representation
	ss, _, err := s.setup(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.srv.Close()
	lt := ss.targets[len(ss.targets)-1]
	for _, gz := range []bool{false, true} {
		dw := newDiscardWriter()
		dw.reset(true)
		ss.srv.Handler().ServeHTTP(dw, lt.request(gz, ""))
		if dw.status != http.StatusOK {
			t.Fatalf("gzip=%v: status %d", gz, dw.status)
		}
		enc, tag := dw.header.Get("Content-Encoding"), dw.header.Get("ETag")
		if gz && enc != "gzip" {
			t.Fatalf("gzip request served %q encoding", enc)
		}
		body := dw.body.Bytes()
		if err := verifyETag(body, enc, tag); err != nil {
			t.Fatalf("gzip=%v: served body fails: %v", gz, err)
		}
		corrupt := append([]byte(nil), body...)
		corrupt[len(corrupt)/2] ^= 0xff
		if verifyETag(corrupt, enc, tag) == nil {
			t.Errorf("gzip=%v: corrupted body passes the ETag check", gz)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}
