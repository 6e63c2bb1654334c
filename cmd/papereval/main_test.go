package main

import (
	"bytes"
	"flag"
	"fmt"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/golden"
)

var update = flag.Bool("update", false, "rewrite this command's digests in the golden file from this build's output")

// goldenPath is the golden file shared with webmeasure's study outputs.
const goldenPath = "../webmeasure/testdata/golden.json"

// heavy are the experiments that build their own webs and lists
// (crawls, H2K lists, universes, what-if browsers) and cost seconds
// even at 30 sites; they are pinned at a smaller shape than the rest.
var heavy = []string{"fig3bc", "stability", "selection", "ablation"}

// goldenRuns are the papereval reports pinned by the golden file, at
// seed 42: every other experiment at 150 sites × 5 URLs × 3 fetches,
// and the heavy four at 30 sites with a 200-page crawl, a 100-site H2K
// list and a three-week, 20,000-site universe.
func goldenRuns() map[string][]string {
	var light []string
	for _, e := range experiments.All() {
		if !slices.Contains(heavy, e.ID) {
			light = append(light, e.ID)
		}
	}
	return map[string][]string{
		"papereval.txt": {"-seed", "42", "-sites", "150", "-persite", "5", "-fetches", "3",
			"-exp", strings.Join(light, ",")},
		"papereval-heavy.txt": {"-seed", "42", "-sites", "30", "-persite", "5", "-fetches", "3",
			"-crawl", "200", "-h2ksites", "100", "-universe", "20000", "-weeks", "3",
			"-exp", strings.Join(heavy, ",")},
	}
}

// elapsed matches the per-experiment wall-clock lines, the only part of
// a report that is not a function of the flags.
var elapsed = regexp.MustCompile(`(?m)^-- \S+ completed in .* --\n`)

var (
	goldenOnce sync.Once
	goldenOut  map[string][]byte
	goldenErr  error
)

// goldenOutputs runs each golden invocation once per test binary and
// returns its report, without the "completed in" lines, by artifact
// name.
func goldenOutputs(t *testing.T) map[string][]byte {
	t.Helper()
	goldenOnce.Do(func() {
		goldenOut = make(map[string][]byte)
		for name, args := range goldenRuns() {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				goldenErr = fmt.Errorf("%s: exit %d: %s", name, code, stderr.String())
				return
			}
			goldenOut[name] = elapsed.ReplaceAll(stdout.Bytes(), nil)
		}
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenOut
}

// TestGoldenReports holds the report text byte-identical to the
// digests in the golden file. A change that moves one is a behaviour
// change: rerun with -update and name the artifact and the cause in
// CHANGES.md. Reports print float results, so the digests are pinned
// on amd64, as webmeasure's are.
func TestGoldenReports(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	golden.Check(t, goldenPath, goldenOutputs(t), *update)
}

// TestGoldenDetectsOneByteChange plants a one-byte change in each
// pinned report and checks that the comparison flags that report alone.
func TestGoldenDetectsOneByteChange(t *testing.T) {
	golden.DetectsOneByteChange(t, goldenOutputs(t))
}

// TestBadExperiment checks that an unknown -exp ID exits 2 before any
// experiment runs.
func TestBadExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig2a,nosuch"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `"nosuch"`) {
		t.Errorf("stderr %q does not name the bad ID", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("wrote %d bytes to stdout", stdout.Len())
	}
}
