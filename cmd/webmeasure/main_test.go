package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from this build's output")

const goldenPath = "testdata/golden.json"

// goldenRuns are the study outputs pinned by testdata/golden.json: the
// cold stream CSV, the warm revisit CSV and a faulted cold CSV, all at
// seed 42 and the `make trace-smoke` shape (120 sites × 5 URLs × 3
// fetches). Together they cover the whole pipeline: webgen, the
// browser over simnet/dnssim/cdn, the HAR→metrics pass, both study
// engines, retries and the CSV sinks.
var goldenRuns = map[string][]string{
	"cold.csv":    {"-seed", "42", "-sites", "120", "-persite", "5", "-fetches", "3"},
	"warm.csv":    {"-seed", "42", "-sites", "120", "-persite", "5", "-fetches", "3", "-warm"},
	"faulted.csv": {"-seed", "42", "-sites", "120", "-persite", "5", "-fetches", "3", "-fault-timeout", "0.2", "-fault-dns", "0.1"},
}

var (
	goldenOnce sync.Once
	goldenOut  map[string][]byte
	goldenErr  string
)

// goldenOutputs runs each golden invocation once per test binary and
// returns its stdout by artifact name.
func goldenOutputs(t *testing.T) map[string][]byte {
	t.Helper()
	goldenOnce.Do(func() {
		goldenOut = make(map[string][]byte, len(goldenRuns))
		for name, args := range goldenRuns {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				goldenErr = fmt.Sprintf("%s: exit %d: %s", name, code, stderr.String())
				return
			}
			goldenOut[name] = stdout.Bytes()
		}
	})
	if goldenErr != "" {
		t.Fatal(goldenErr)
	}
	return goldenOut
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenMismatches returns, in name order, the artifacts whose digest
// differs from want, plus any artifact missing from either side.
func goldenMismatches(want map[string]string, got map[string][]byte) []string {
	var bad []string
	for name, out := range got {
		if want[name] != digest(out) {
			bad = append(bad, name)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	return bad
}

// TestGoldenCSVs holds the study CSVs byte-identical to the digests in
// testdata/golden.json. A change that moves any of them is a behaviour
// change: rerun with -update and name the artifact and the cause in
// CHANGES.md. The CSVs carry float results, whose last bits can differ
// across architectures (fused multiply-add), so the digests are pinned
// on amd64, as bench/digests.json is.
func TestGoldenCSVs(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	got := goldenOutputs(t)
	if *update {
		want := make(map[string]string, len(got))
		for name, out := range got {
			want[name] = digest(out)
		}
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, name := range goldenMismatches(want, got) {
		t.Errorf("%s: sha256 %s, golden %s (%d bytes; rerun with -update if the change is intended)",
			name, digest(got[name]), want[name], len(got[name]))
	}
}

// TestGoldenDetectsOneByteChange plants a one-byte change in each golden
// artifact and checks that the comparison flags that artifact alone.
func TestGoldenDetectsOneByteChange(t *testing.T) {
	got := goldenOutputs(t)
	want := make(map[string]string, len(got))
	for name, out := range got {
		want[name] = digest(out)
	}
	for name, out := range got {
		planted := make(map[string][]byte, len(got))
		for k, v := range got {
			planted[k] = v
		}
		b := bytes.Clone(out)
		b[len(b)/2] ^= 1
		planted[name] = b
		if bad := goldenMismatches(want, planted); len(bad) != 1 || bad[0] != name {
			t.Errorf("one-byte change to %s: mismatches %v", name, bad)
		}
	}
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
