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

	"repro/internal/golden"
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
