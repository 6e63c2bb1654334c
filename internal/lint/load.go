package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one loaded, parsed, and type-checked package of the module
// under analysis.
type Package struct {
	Path  string // import path, e.g. "repro/internal/core"
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	allows []*allowDirective
}

// LoadError marks a failure to parse or type-check the module — the
// driver maps it to exit code 2 (as opposed to findings, which exit 1).
type LoadError struct {
	Err error
}

func (e *LoadError) Error() string { return fmt.Sprintf("lint: load: %v", e.Err) }
func (e *LoadError) Unwrap() error { return e.Err }

// LoadModule discovers, parses, and type-checks every non-test package
// under the module rooted at root (the directory holding go.mod).
// Packages come back sorted by import path. Test files (_test.go) are
// excluded: the determinism contract binds shipping code; tests exercise
// it and may legitimately consult the clock.
func LoadModule(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, &LoadError{err}
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, &LoadError{err}
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, &LoadError{err}
	}

	fset := token.NewFileSet()
	type rawPkg struct {
		path    string
		dir     string
		files   []*ast.File
		imports []string // module-internal imports only
	}
	raw := make(map[string]*rawPkg)
	var std []string // the standard-library imports, with repeats
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, &LoadError{err}
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		files, err := parseDir(fset, dir)
		if err != nil {
			return nil, &LoadError{err}
		}
		if len(files) == 0 {
			continue
		}
		rp := &rawPkg{path: path, dir: dir, files: files}
		seen := map[string]bool{}
		for _, f := range files {
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil || seen[p] {
					continue
				}
				seen[p] = true
				if p == modPath || strings.HasPrefix(p, modPath+"/") {
					rp.imports = append(rp.imports, p)
				} else if p != "unsafe" {
					std = append(std, p)
				}
			}
		}
		raw[path] = rp
	}
	sort.Strings(std)
	if err := listStd(slices.Compact(std)); err != nil {
		return nil, &LoadError{err}
	}

	paths := make([]string, 0, len(raw))
	for p := range raw {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	order, err := topoSort(paths, func(p string) []string { return raw[p].imports })
	if err != nil {
		return nil, &LoadError{err}
	}

	checked := make(map[string]*types.Package)
	imp := &moduleImporter{
		modPath: modPath,
		checked: checked,
		std:     importer.ForCompiler(fset, "gc", lookupStd),
	}
	var pkgs []*Package
	for _, path := range order {
		rp := raw[path]
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, rp.files, info)
		if err != nil {
			return nil, &LoadError{fmt.Errorf("type-checking %s: %w", path, err)}
		}
		checked[path] = tpkg
		pkg := &Package{
			Path:  path,
			Dir:   rp.dir,
			Fset:  fset,
			Files: rp.files,
			Types: tpkg,
			Info:  info,
		}
		for _, f := range rp.files {
			pkg.allows = append(pkg.allows, parseAllows(fset, f)...)
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// moduleImporter resolves module-internal import paths from the packages
// already type-checked this load (topological order guarantees they
// exist) and everything else — the standard library — from the
// compiler's export data. The module is stdlib-only, so std is only ever
// asked for GOROOT packages; the gc importer opens their export data
// through lookupStd, so every load skips type-checking net/http and the
// rest of std from source.
type moduleImporter struct {
	modPath string
	checked map[string]*types.Package
	std     types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == m.modPath || strings.HasPrefix(path, m.modPath+"/") {
		if p, ok := m.checked[path]; ok {
			return p, nil
		}
		return nil, fmt.Errorf("internal package %s not yet type-checked (import cycle?)", path)
	}
	return m.std.Import(path)
}

// modulePath reads the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("%s: no module declaration", gomod)
}

// packageDirs walks root and returns every directory containing at least
// one buildable non-test .go file, skipping testdata, vendor, and hidden
// or underscore-prefixed directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") &&
				!strings.HasPrefix(n, ".") && !strings.HasPrefix(n, "_") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// parseDir parses every buildable non-test .go file in dir.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") ||
			strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// topoSort orders package paths so that every package appears after its
// module-internal imports. paths must be pre-sorted for a deterministic
// result; deps may return paths outside the set, which are ignored.
func topoSort(paths []string, deps func(string) []string) ([]string, error) {
	known := make(map[string]bool, len(paths))
	for _, p := range paths {
		known[p] = true
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make(map[string]int, len(paths))
	var order []string
	var visit func(p string) error
	visit = func(p string) error {
		switch state[p] {
		case gray:
			return fmt.Errorf("import cycle through %s", p)
		case black:
			return nil
		}
		state[p] = gray
		for _, d := range deps(p) {
			if !known[d] {
				continue
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		state[p] = black
		order = append(order, p)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// stdExports maps a standard-library import path to its export data
// file, as `go list -export` reports it ("" if it reported none). It is
// filled by listStd and kept for the life of the process, so only the
// first load in a process runs `go list`.
var stdExports struct {
	sync.Mutex
	files map[string]string
}

// listStd records the export data of paths and of every package they
// depend on, in one `go list -export -deps` call over the paths no
// earlier call listed. It runs GOROOT's go command from GOROOT, as the
// gc importer does when it is given no lookup.
func listStd(paths []string) error {
	stdExports.Lock()
	defer stdExports.Unlock()
	var missing []string
	for _, p := range paths {
		if _, ok := stdExports.files[p]; !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	goroot := build.Default.GOROOT
	args := append([]string{"list", "-e", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}, missing...)
	cmd := exec.Command(filepath.Join(goroot, "bin", "go"), args...)
	cmd.Dir = goroot
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) && len(ee.Stderr) > 0 {
			err = errors.New(strings.TrimSpace(string(ee.Stderr)))
		}
		return fmt.Errorf("go list -export: %w", err)
	}
	if stdExports.files == nil {
		stdExports.files = make(map[string]string)
	}
	// With -e, a path go list cannot resolve is still listed, with no
	// export file.
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "\t")
		stdExports.files[path] = file
	}
	return nil
}

// lookupStd is the gc importer's lookup: it opens path's export data,
// listing path first if no earlier call did.
func lookupStd(path string) (io.ReadCloser, error) {
	if err := listStd([]string{path}); err != nil {
		return nil, err
	}
	stdExports.Lock()
	file := stdExports.files[path]
	stdExports.Unlock()
	if file == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(file)
}
