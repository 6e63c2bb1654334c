package main

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// fixtureMod is a self-contained module (testdata is invisible to the
// outer build): package app trips walltime only, package fetch plants
// one defect per lifecycle check.
const fixtureMod = "testdata/mod"

// lifeChecks are the four lifecycle checks; lifeTags their diagnostic
// tags.
const lifeChecks = "closeleak,bodyclose,tickleak,deferhot"

var lifeTags = []string{"[closeleak]", "[bodyclose]", "[tickleak]", "[deferhot]"}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestChecksSubset proves -checks isolation on the fixture module:
// walltime and the lifecycle checks each report only their own
// findings, and a subset the fixture does not trip comes back clean.
func TestChecksSubset(t *testing.T) {
	code, out, _ := runCLI(t, "-dir", fixtureMod, "-checks", "walltime")
	if code != 1 {
		t.Fatalf("walltime subset exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "[walltime]") {
		t.Errorf("output missing walltime finding:\n%s", out)
	}
	for _, tag := range lifeTags {
		if strings.Contains(out, tag) {
			t.Errorf("walltime subset leaked %s findings:\n%s", tag, out)
		}
	}

	code, out, _ = runCLI(t, "-dir", fixtureMod, "-checks", lifeChecks)
	if code != 1 {
		t.Fatalf("lifecycle subset exit = %d, want 1\n%s", code, out)
	}
	if strings.Contains(out, "[walltime]") {
		t.Errorf("lifecycle subset leaked walltime findings:\n%s", out)
	}

	code, out, _ = runCLI(t, "-dir", fixtureMod, "-checks", "gorleak,lockheld")
	if code != 0 {
		t.Errorf("clean subset exit = %d, want 0\n%s", code, out)
	}
}

// TestUnknownCheck is the flag-error contract: exit 2, named in stderr.
func TestUnknownCheck(t *testing.T) {
	code, _, errOut := runCLI(t, "-dir", fixtureMod, "-checks", "nosuch")
	if code != 2 {
		t.Fatalf("unknown check exit = %d, want 2", code)
	}
	if !strings.Contains(errOut, "nosuch") {
		t.Errorf("stderr does not name the unknown check:\n%s", errOut)
	}
}

// TestLifecycleChecks runs the four lifecycle checks over the fixture
// module: each finds its planted defect, the subset stays isolated from
// the other analyzers, and the rendering is byte-identical across runs
// and GOMAXPROCS values.
func TestLifecycleChecks(t *testing.T) {
	code, out, _ := runCLI(t, "-dir", fixtureMod, "-checks", lifeChecks)
	if code != 1 {
		t.Fatalf("lifecycle subset exit = %d, want 1\n%s", code, out)
	}
	for _, tag := range lifeTags {
		if !strings.Contains(out, tag) {
			t.Errorf("output missing %s finding:\n%s", tag, out)
		}
	}
	if strings.Contains(out, "[walltime]") {
		t.Errorf("lifecycle subset leaked walltime findings:\n%s", out)
	}

	// One check alone reports only its own defect.
	code, out, _ = runCLI(t, "-dir", fixtureMod, "-checks", "tickleak")
	if code != 1 || !strings.Contains(out, "[tickleak]") {
		t.Fatalf("tickleak-only exit = %d, want 1 with a tickleak finding\n%s", code, out)
	}
	if strings.Contains(out, "[closeleak]") {
		t.Errorf("tickleak-only run leaked closeleak findings:\n%s", out)
	}

	// Byte-identical across repeated runs and across GOMAXPROCS.
	_, first, _ := runCLI(t, "-dir", fixtureMod, "-checks", lifeChecks, "-format", "json")
	_, again, _ := runCLI(t, "-dir", fixtureMod, "-checks", lifeChecks, "-format", "json")
	if first != again {
		t.Errorf("lifecycle json diverged across runs:\n--- first ---\n%s--- again ---\n%s", first, again)
	}
	old := runtime.GOMAXPROCS(1)
	_, serial, _ := runCLI(t, "-dir", fixtureMod, "-checks", lifeChecks, "-format", "json")
	runtime.GOMAXPROCS(old)
	if first != serial {
		t.Errorf("lifecycle json diverged across GOMAXPROCS:\n--- parallel ---\n%s--- serial ---\n%s", first, serial)
	}
}

// TestLeaksReport exercises -leaks: exit 0 despite the planted leaks,
// the inventory names resources with resolved fates, and the JSON
// rendering is stable across runs.
func TestLeaksReport(t *testing.T) {
	code, text, errOut := runCLI(t, "-dir", fixtureMod, "-leaks")
	if code != 0 {
		t.Fatalf("-leaks exit = %d, want 0\n%s", code, text)
	}
	for _, want := range []string{"resource-lifecycle report", "os.Open", "-> leaked", "-> deferred", "[bodyclose]", "[hot]"} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(errOut, "lifecycle report:") {
		t.Errorf("stderr missing summary line:\n%s", errOut)
	}

	_, first, _ := runCLI(t, "-dir", fixtureMod, "-leaks", "-format", "json")
	_, again, _ := runCLI(t, "-dir", fixtureMod, "-leaks", "-format", "json")
	if first != again {
		t.Errorf("-leaks json diverged across runs:\n--- first ---\n%s--- again ---\n%s", first, again)
	}
	if !strings.Contains(first, `"fingerprint"`) || !strings.Contains(first, `"outcome"`) {
		t.Errorf("json report missing expected fields:\n%s", first)
	}
}
