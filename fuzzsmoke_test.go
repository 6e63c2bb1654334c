package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fuzzFunc matches a fuzz target declaration in a _test.go file.
var fuzzFunc = regexp.MustCompile(`(?m)^func (Fuzz\w*)\(`)

// TestFuzzSmokeRunsEveryTarget keeps the fuzz target lists in sync with
// the code: every func Fuzz* in the module must be run by the
// Makefile's fuzz-smoke target against its own package, and be named in
// README's CI section and in the CI workflow's fuzz smoke comment.
// Nested modules (bench/, testdata fixtures) are not part of the module
// and are skipped.
func TestFuzzSmokeRunsEveryTarget(t *testing.T) {
	targets := map[string]string{} // name → package dir, "./internal/core"
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			targets[m[1]] = "./" + filepath.ToSlash(filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("found no fuzz targets; the walk is broken")
	}
	names := make([]string, 0, len(targets))
	for name := range targets {
		names = append(names, name)
	}
	sort.Strings(names)

	recipe := makeTarget(t, "fuzz-smoke")
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		run := regexp.MustCompile(`\$\(GO\) test ` + regexp.QuoteMeta(targets[name]) + ` .*-fuzz '\^` + name + `\$\$'`)
		if !run.MatchString(recipe) {
			t.Errorf("make fuzz-smoke does not run %s in %s", name, targets[name])
		}
		if !strings.Contains(string(readme), "`"+name+"`") {
			t.Errorf("README does not name %s", name)
		}
		if !regexp.MustCompile(`\b` + name + `\b`).Match(ci) {
			t.Errorf("the CI workflow does not name %s", name)
		}
	}
}

// makeTarget returns the recipe lines of one Makefile target.
func makeTarget(t *testing.T, target string) string {
	t.Helper()
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, target+":") {
			continue
		}
		var recipe []string
		for _, l := range lines[i+1:] {
			if !strings.HasPrefix(l, "\t") {
				break
			}
			recipe = append(recipe, l)
		}
		return strings.Join(recipe, "\n")
	}
	t.Fatalf("Makefile has no %s target", target)
	return ""
}
