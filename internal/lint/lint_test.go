package lint

import (
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// goldenCases maps each testdata/src directory to the checks it
// exercises and the synthetic import path the package is loaded under
// (path-scoped rules — internal/, vclock exemptions — key off it; the
// interprocedural fixtures load under their own base name so call-chain
// renderings like "taint.emit → taint.stamp" match the source).
// staleallow runs alongside walltime because it judges directives only
// for checks that actually ran.
var goldenCases = []struct {
	dir    string
	checks []*Check
	path   string
}{
	{"walltime", []*Check{WalltimeCheck}, "repro/internal/walltimetest"},
	{"globalrand", []*Check{GlobalrandCheck}, "repro/internal/globalrandtest"},
	{"maporder", []*Check{MaporderCheck}, "repro/internal/maporder"},
	{"envread", []*Check{EnvreadCheck}, "repro/internal/envreadtest"},
	{"errdrop", []*Check{ErrdropCheck}, "repro/internal/errdroptest"},
	{"taint", []*Check{TaintCheck}, "repro/internal/taint"},
	{"tracesink", []*Check{TaintCheck}, "repro/internal/trace"},
	{"gorleak", []*Check{GorleakCheck}, "repro/internal/gorleak"},
	{"lockheld", []*Check{LockheldCheck}, "repro/internal/lockheld"},
	{"closeleak", []*Check{CloseleakCheck}, "repro/internal/closeleak"},
	{"bodyclose", []*Check{BodycloseCheck}, "repro/internal/bodyclose"},
	{"tickleak", []*Check{TickleakCheck}, "repro/internal/tickleak"},
	{"deferhot", []*Check{DeferhotCheck}, "repro/internal/deferhot"},
	{"staleallow", []*Check{WalltimeCheck, StaleallowCheck}, "repro/internal/staleallowtest"},
}

// wantRe matches expected-diagnostic comments: // want `regexp` or
// // want "regexp".
var wantRe = regexp.MustCompile("// want [`\"](.+)[`\"]")

// testImporter resolves the standard library from the compiler's export
// data, as LoadModule does, and the module paths a fixture imports
// (repro/internal/detrand, repro/internal/profiling) from source under
// the module root, type-checking each once per importer.
type testImporter struct {
	fset *token.FileSet
	std  types.Importer
	mod  map[string]*types.Package
}

func newTestImporter(fset *token.FileSet) *testImporter {
	return &testImporter{fset: fset, std: importer.ForCompiler(fset, "gc", lookupStd), mod: make(map[string]*types.Package)}
}

func (ti *testImporter) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, "repro/")
	if !ok {
		return ti.std.Import(path)
	}
	if p, ok := ti.mod[path]; ok {
		return p, nil
	}
	files, err := parseDir(ti.fset, filepath.Join("..", "..", filepath.FromSlash(rel)))
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: ti}
	p, err := conf.Check(path, ti.fset, files, nil)
	if err != nil {
		return nil, err
	}
	ti.mod[path] = p
	return p, nil
}

// loadTestPkg parses and type-checks one testdata package under a
// synthetic import path, reusing the production allow-directive parsing.
func loadTestPkg(t *testing.T, fset *token.FileSet, imp types.Importer, dir, path string) *Package {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		t.Fatalf("type-check %s: %v", dir, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}
	for _, f := range files {
		pkg.allows = append(pkg.allows, parseAllows(fset, f)...)
	}
	return pkg
}

// wantsIn extracts want expectations (file:line → regexps) from the raw
// sources of a testdata directory.
func wantsIn(t *testing.T, dir string) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		full := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(full)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", full, i+1, m[1], err)
			}
			key := keyAt(full, i+1)
			wants[key] = append(wants[key], re)
		}
	}
	return wants
}

func keyAt(file string, line int) string {
	return file + ":" + itoa(line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestGolden(t *testing.T) {
	fset := token.NewFileSet()
	imp := newTestImporter(fset)
	for _, tc := range goldenCases {
		t.Run(tc.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.dir)
			pkg := loadTestPkg(t, fset, imp, dir, tc.path)
			matchWants(t, Run([]*Package{pkg}, tc.checks), wantsIn(t, dir))
		})
	}
}

// matchWants requires every diagnostic to match a want on its line and
// every want to be matched.
func matchWants(t *testing.T, diags []Diagnostic, wants map[string][]*regexp.Regexp) {
	t.Helper()
	matched := make(map[string]int)
	for _, d := range diags {
		key := keyAt(d.File, d.Line)
		res := wants[key]
		if len(res) == 0 {
			t.Errorf("unexpected diagnostic %s", d)
			continue
		}
		ok := false
		for _, re := range res {
			if re.MatchString(d.Message) {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("diagnostic %s does not match any want at %s", d, key)
		}
		matched[key]++
	}
	for key, res := range wants {
		if matched[key] < len(res) {
			t.Errorf("want at %s: expected %d diagnostics, got %d", key, len(res), matched[key])
		}
	}
}

// vetLine matches one go vet diagnostic: "./file.go:line:col: message".
var vetLine = regexp.MustCompile(`^\./(\S+\.go):(\d+):\d+: (.+)$`)

// TestVetOwnsContextCancels holds go vet, which make test-race and make
// ci run over the module, to the context-cancel leaks detlint leaves to
// it: lostcancel must report exactly the leaks planted in the
// testdata/lostcancel module — the cancel one path never calls and the
// one discarded with `ctx, _ :=` — each matching its want comment.
func TestVetOwnsContextCancels(t *testing.T) {
	dir := filepath.Join("testdata", "lostcancel")
	wants := wantsIn(t, dir)
	if len(wants) < 2 {
		t.Fatalf("fixture plants %d leaks, want at least 2", len(wants))
	}
	cmd := exec.Command("go", "vet", "-lostcancel", ".")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("go vet must exit non-zero on the planted leaks, got err %v\n%s", err, out)
	}
	var diags []Diagnostic
	for _, line := range strings.Split(string(out), "\n") {
		if m := vetLine.FindStringSubmatch(line); m != nil {
			n, _ := strconv.Atoi(m[2])
			diags = append(diags, Diagnostic{Check: "lostcancel", File: filepath.Join(dir, m[1]), Line: n, Message: m[3]})
		}
	}
	matchWants(t, diags, wants)
}

// TestWalltimeVclockExempt reloads the walltime fixture — full of
// time.Now calls — under internal/vclock's own import path: the one
// package allowed to touch the wall clock must produce zero findings.
func TestWalltimeVclockExempt(t *testing.T) {
	fset := token.NewFileSet()
	imp := newTestImporter(fset)
	dir := filepath.Join("testdata", "src", "walltime")
	pkg := loadTestPkg(t, fset, imp, dir, "repro/internal/vclock")
	if diags := Run([]*Package{pkg}, []*Check{WalltimeCheck}); len(diags) != 0 {
		t.Errorf("vclock package must be exempt from walltime, got %v", diags)
	}
}

// TestEnvreadScope reloads the envread fixture under a cmd/ path:
// binaries may read the environment, so the check must stay silent.
func TestEnvreadScope(t *testing.T) {
	fset := token.NewFileSet()
	imp := newTestImporter(fset)
	dir := filepath.Join("testdata", "src", "envread")
	pkg := loadTestPkg(t, fset, imp, dir, "repro/cmd/envreadtool")
	if diags := Run([]*Package{pkg}, []*Check{EnvreadCheck}); len(diags) != 0 {
		t.Errorf("cmd/ packages may read the environment, got %v", diags)
	}
}

// TestFileLevelAllow verifies a //detlint:allow directive in the package
// doc block silences a check for the entire file.
func TestFileLevelAllow(t *testing.T) {
	fset := token.NewFileSet()
	imp := newTestImporter(fset)
	dir := filepath.Join("testdata", "src", "allowfile")
	pkg := loadTestPkg(t, fset, imp, dir, "repro/internal/allowfiletest")
	if diags := Run([]*Package{pkg}, []*Check{WalltimeCheck}); len(diags) != 0 {
		t.Errorf("file-level allow must suppress every walltime finding, got %v", diags)
	}
	// The directive names only walltime: other checks still fire.
	diags := Run([]*Package{pkg}, []*Check{EnvreadCheck})
	if len(diags) != 1 {
		t.Errorf("file-level walltime allow must not silence envread, got %v", diags)
	}
}

// TestModuleIsClean runs the full suite over the real module: the
// determinism contract must hold on every commit, with zero findings: a
// finding is fixed or carries a justified //detlint:allow.
func TestModuleIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("abs: %v", err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 30 {
		t.Fatalf("loaded only %d packages; loader is missing most of the module", len(pkgs))
	}
	diags := Run(pkgs, Checks())
	Relativize(diags, root)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// renderFixtureSuite loads every golden fixture from scratch (fresh
// FileSet, fresh importer, fresh type-check) and runs the full check
// suite over all of them at once, returning the rendered diagnostics as
// one string. Each call rebuilds everything, so two calls agreeing
// byte-for-byte means the pipeline's ordering is intrinsic, not an
// accident of reused state.
func renderFixtureSuite(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	imp := newTestImporter(fset)
	var pkgs []*Package
	for _, tc := range goldenCases {
		dir := filepath.Join("testdata", "src", tc.dir)
		pkgs = append(pkgs, loadTestPkg(t, fset, imp, dir, tc.path))
	}
	var sb strings.Builder
	for _, d := range Run(pkgs, Checks()) {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestAnalyzerDeterminism asserts the analyzer's own output contract:
// byte-identical diagnostics across repeated runs and across GOMAXPROCS
// settings. The pipeline is single-threaded by construction, but this
// test pins that down so a future parallel package loader cannot
// silently reorder findings.
func TestAnalyzerDeterminism(t *testing.T) {
	first := renderFixtureSuite(t)
	if first == "" {
		t.Fatal("fixture suite produced no diagnostics; determinism comparison is vacuous")
	}
	if again := renderFixtureSuite(t); again != first {
		t.Errorf("repeated run diverged:\n--- first ---\n%s--- second ---\n%s", first, again)
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if serial := renderFixtureSuite(t); serial != first {
		t.Errorf("GOMAXPROCS=1 run diverged:\n--- parallel ---\n%s--- serial ---\n%s", first, serial)
	}
}
