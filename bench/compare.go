package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// specPath is BENCHMARK.json, relative to the repository root the
// benchmark runs from.
const specPath = "BENCHMARK.json"

// spec is the part of BENCHMARK.json the benchmark reads: the measuring
// budget of a run and the end-to-end bounds -compare applies.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (spec, error) {
	var sp spec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// readRecords reads a -record file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of
// xs by the method of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method). It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// compareFiles prints, per workload and end-to-end metric, each record
// set's median and quartiles and whether the medians agree within the
// metric's bound. It also requires every run of a workload at one seed
// to have produced the same output digest. It reports whether all agree.
func compareFiles(w io.Writer, sp spec, pathA, pathB string) (bool, error) {
	var err error
	sets := [2][]record{}
	for i, p := range []string{pathA, pathB} {
		if sets[i], err = readRecords(p); err != nil {
			return false, err
		}
	}

	ok := true
	digests := make(map[string]string)
	values := [2]map[string]map[string][]float64{{}, {}}
	var names []string
	for i, recs := range sets {
		for _, rec := range recs {
			key := fmt.Sprintf("%s seed %d", rec.Workload, rec.Seed)
			if d, seen := digests[key]; seen && d != rec.SHA256 {
				fmt.Fprintf(w, "DIGEST MISMATCH %s: %s vs %s\n", key, d, rec.SHA256)
				ok = false
			}
			digests[key] = rec.SHA256
			if !rec.Result.Correct {
				fmt.Fprintf(w, "INCORRECT RUN %s\n", key)
				ok = false
			}
			if rec.Trace {
				continue
			}
			if values[i][rec.Workload] == nil {
				values[i][rec.Workload] = make(map[string][]float64)
				if i == 0 || values[0][rec.Workload] == nil {
					names = append(names, rec.Workload)
				}
			}
			for name, m := range rec.Result.Metrics {
				values[i][rec.Workload][name] = append(values[i][rec.Workload][name], m.Value)
			}
		}
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-12s %-12s %33s %33s %8s %6s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A-1", "bound")
	for _, wl := range names {
		for _, m := range sp.EndToEnd {
			a, bv := values[0][wl][m.Name], values[1][wl][m.Name]
			if len(a) == 0 || len(bv) == 0 {
				fmt.Fprintf(w, "%-12s %-12s missing from one set\n", wl, m.Name)
				ok = false
				continue
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(bv)
			diff := b2/a2 - 1
			verdict := "agree"
			if math.Abs(diff) > m.Bound {
				verdict = "DIFFER"
				ok = false
			}
			fmt.Fprintf(w, "%-12s %-12s %11.5g [%9.5g, %9.5g] %11.5g [%9.5g, %9.5g] %+7.2f%% %5.0f%% %s\n",
				wl, m.Name, a2, a1, a3, b2, b1, b3, 100*diff, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}
