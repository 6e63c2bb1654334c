package main

import (
	"bytes"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/golden"
	"repro/internal/har"
	"repro/internal/world"
)

var update = flag.Bool("update", false, "rewrite this command's digests in testdata/golden.json from this build's output")

// goldenPath holds the digests of every pinned command output, this
// command's and papereval's.
const goldenPath = "testdata/golden.json"

// goldenRuns are the study outputs pinned by testdata/golden.json: the
// cold stream CSV, the warm revisit CSV and a faulted cold CSV, all at
// seed 42 and the `make trace-smoke` shape (120 sites × 5 URLs × 3
// fetches). Together they cover the whole pipeline: webgen, the
// browser over simnet/dnssim/cdn, the HAR→metrics pass, both study
// engines, retries and the CSV sinks. The cold and warm runs also pin
// their -trace-detail phases trace JSON (-trace does not change the
// CSV).
var goldenRuns = []struct {
	csv, trace string // artifact names; trace is "" when the run writes none
	args       []string
}{
	{"cold.csv", "cold.trace.json", []string{"-seed", "42", "-sites", "120", "-persite", "5", "-fetches", "3"}},
	{"warm.csv", "warm.trace.json", []string{"-seed", "42", "-sites", "120", "-persite", "5", "-fetches", "3", "-warm"}},
	{"faulted.csv", "", []string{"-seed", "42", "-sites", "120", "-persite", "5", "-fetches", "3", "-fault-timeout", "0.2", "-fault-dns", "0.1"}},
}

var (
	goldenOnce sync.Once
	goldenOut  map[string][]byte
	goldenErr  error
)

// goldenOutputs runs each golden invocation once per test binary and
// returns its outputs by artifact name.
func goldenOutputs(t *testing.T) map[string][]byte {
	t.Helper()
	goldenOnce.Do(func() { goldenOut, goldenErr = runGolden() })
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenOut
}

func runGolden() (map[string][]byte, error) {
	dir, err := os.MkdirTemp("", "webmeasure-golden")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	out := make(map[string][]byte)
	for _, r := range goldenRuns {
		args := r.args
		if r.trace != "" {
			args = append(args[:len(args):len(args)], "-trace", filepath.Join(dir, r.trace), "-trace-detail", "phases")
		}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			return nil, fmt.Errorf("%s: exit %d: %s", r.csv, code, stderr.String())
		}
		out[r.csv] = stdout.Bytes()
		if r.trace != "" {
			if out[r.trace], err = os.ReadFile(filepath.Join(dir, r.trace)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// TestGoldenCSVs holds the study CSVs and traces byte-identical to the
// digests in testdata/golden.json. A change that moves any of them is
// a behaviour change: rerun with -update and name the artifact and the
// cause in CHANGES.md. The CSVs carry float results, whose last bits
// can differ across architectures (fused multiply-add), so the digests
// are pinned on amd64, as bench/digests.json is.
func TestGoldenCSVs(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	golden.Check(t, goldenPath, goldenOutputs(t), *update)
}

// TestGoldenDetectsOneByteChange plants a one-byte change in each golden
// artifact and checks that the comparison flags that artifact alone.
func TestGoldenDetectsOneByteChange(t *testing.T) {
	golden.DetectsOneByteChange(t, goldenOutputs(t))
}

// TestSmallURLSets runs a study whose URL sets are smaller than H1K's
// 5-result minimum: every site must still make the list, with -persite
// rows each.
// TestStatsBeforeScheduledLineIgnoreWorkers holds -stats to its split:
// the report above scheduledLine is byte-identical at -workers 1 and 3,
// and the per-worker gauges are below it.
func TestStatsBeforeScheduledLineIgnoreWorkers(t *testing.T) {
	fixed := make([]string, 0, 2)
	for _, workers := range []string{"1", "3"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-seed", "42", "-sites", "12", "-persite", "3", "-fetches", "1", "-fault-timeout", "0.2", "-workers", workers, "-stats"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-workers %s: exit %d: %s", workers, code, stderr.String())
		}
		before, after, ok := strings.Cut(stderr.String(), scheduledLine+"\n")
		if !ok {
			t.Fatalf("-workers %s: no %q line in:\n%s", workers, scheduledLine, stderr.String())
		}
		if !strings.Contains(before, "counters:") || !strings.Contains(before, "histograms:") {
			t.Errorf("-workers %s: report before the split holds no counters or histograms:\n%s", workers, before)
		}
		for _, moved := range []string{"worker.0.sites", "stream.inflight.max", "sites in flight", "MB live"} {
			if strings.Contains(before, moved) || !strings.Contains(after, moved) {
				t.Errorf("-workers %s: %q is not (only) after the split", workers, moved)
			}
		}
		fixed = append(fixed, before)
	}
	if fixed[0] != fixed[1] {
		t.Errorf("-stats before %q differs between -workers 1 and 3:\n--- 1\n%s--- 3\n%s", scheduledLine, fixed[0], fixed[1])
	}
}

func TestSmallURLSets(t *testing.T) {
	for _, perSite := range []int{1, 3} {
		args := []string{"-sites", "20", "-persite", strconv.Itoa(perSite), "-fetches", "1"}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-persite %d: exit %d: %s", perSite, code, stderr.String())
		}
		rows, err := csv.NewReader(&stdout).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		perDomain := make(map[string]int)
		for _, row := range rows[1:] {
			perDomain[row[0]]++
		}
		if len(perDomain) != 20 {
			t.Errorf("-persite %d: %d sites in the CSV, want 20", perSite, len(perDomain))
		}
		for domain, n := range perDomain {
			if n != perSite {
				t.Errorf("-persite %d: %s has %d rows", perSite, domain, n)
			}
		}
	}
}

// TestBadPerSite checks that a URL-set size below 1 is rejected up
// front, with a message that names the flag.
func TestBadPerSite(t *testing.T) {
	for _, v := range []string{"0", "-2"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-sites", "5", "-persite", v}, &stdout, &stderr); code != 2 {
			t.Errorf("-persite %s: exit %d, want 2", v, code)
		}
		if !strings.Contains(stderr.String(), "-persite") {
			t.Errorf("-persite %s: stderr %q does not name the flag", v, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-persite %s: wrote %d bytes to stdout", v, stdout.Len())
		}
	}
}

// TestHARsAreTheCSVsLogs runs one study with -har and requires the
// bundle to hold the logs behind its CSV: exactly one .har.json per CSV
// row, and MeasureHAR of each file, with the study's analyzers, equal
// to that row on every column a HAR decides. Only the site columns and
// the DOM-only hints and ad_slots come from elsewhere.
func TestHARsAreTheCSVsLogs(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"-seed", "42", "-sites", "5", "-persite", "3", "-fetches", "1", "-har", dir}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	rows, err := csv.NewReader(&stdout).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("-har run wrote no CSV")
	}
	header, rows := rows[0], rows[1:]
	col := make(map[string]int, len(header))
	for i, name := range header {
		col[name] = i
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.har.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(rows) || len(rows) != 15 {
		t.Fatalf("%d HAR files for %d CSV rows, want 15 each", len(files), len(rows))
	}

	w, err := world.Build(world.Config{Seed: 42, Sites: 5, URLsPerSite: 3, MinResults: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.NewStudy(w.Web, core.StudyConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	byURL := make(map[string][]string, len(rows))
	for _, row := range rows {
		byURL[row[col["url"]]] = row
	}
	notFromHAR := map[string]bool{"domain": true, "rank": true, "category": true, "hints": true, "ad_slots": true}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		log, err := har.ReadJSON(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		want, ok := byURL[log.Page.URL]
		if !ok {
			t.Errorf("%s: page %s has no CSV row", filepath.Base(path), log.Page.URL)
			continue
		}
		got := harRow(t, core.MeasureHAR(log, st.Analyzers()))
		for i, name := range header {
			if !notFromHAR[name] && got[i] != want[i] {
				t.Errorf("%s: %s = %s from the HAR, %s in the CSV", log.Page.URL, name, got[i], want[i])
			}
		}
	}
}

// harRow renders one measurement as the CSV row the study writes for it.
func harRow(t *testing.T, m core.PageMeasurement) []string {
	t.Helper()
	site := core.SiteResult{Landing: m}
	if !m.IsLanding {
		site.Internal = []core.PageMeasurement{m}
	}
	var buf bytes.Buffer
	if err := core.WriteMeasurementsCSV(&buf, &core.StudyResult{Sites: []core.SiteResult{site}}); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows[len(rows)-1]
}

// TestHARWriteFailureFailsTheRun checks that a bundle that cannot be
// written fails the run with exit 1: a -har path that is a regular
// file, and a HAR file that cannot be created mid-run, even with an
// unlimited failure budget, since a hook error is not a site failure.
func TestHARWriteFailureFailsTheRun(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "plain")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-sites", "2", "-persite", "2", "-fetches", "1", "-budget", "-1"}
	var stdout, stderr bytes.Buffer
	if code := run(append(args, "-har", file), &stdout, &stderr); code != 1 {
		t.Errorf("-har on a regular file: exit %d, want 1", code)
	}

	// A directory squatting on one HAR file's name makes its create fail.
	ok := filepath.Join(dir, "ok")
	if code := run(append(args, "-har", ok), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	names, err := filepath.Glob(filepath.Join(ok, "*.har.json"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no HAR files written (%v)", err)
	}
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, filepath.Base(names[len(names)-1])), 0o755); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run(append(args, "-har", blocked), &stdout, &stderr); code != 1 {
		t.Errorf("unwritable HAR file: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "log hook") {
		t.Errorf("stderr %q does not report the hook error", stderr.String())
	}
}
