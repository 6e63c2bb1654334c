// Package lint is detlint's analysis engine: a stdlib-only static
// analyzer that enforces the repository's determinism and concurrency
// invariants. Every result this repro publishes — the landing-vs-internal
// gaps of the paper and the warm-cache deltas — rests on the contract
// that seeded runs are byte-identical, worker-count invariant, and driven
// by virtual time. The checks in this package turn that contract into
// machine-checked rules:
//
//   - walltime:   no time.Now/Since/Sleep/After outside internal/vclock
//   - globalrand: no process-global math/rand state; RNGs are threaded
//   - maporder:   no map-iteration-ordered output (CSV, HAR, reports)
//   - envread:    no os.Getenv in internal/ — configuration is explicit
//   - errdrop:    no silently dropped Write/Close/Flush errors in writers
//   - taint:      no call path from a nondeterminism source to an artifact sink
//   - gorleak:    no goroutine without a join or cancel path
//   - lockheld:   no mutex held across blocking operations or re-acquiring calls
//   - closeleak, bodyclose, tickleak: every acquired file, connection,
//     profile stop func, response body, and ticker is released on every
//     path
//   - deferhot:   no defer inside a loop on a //detlint:hotpath-reachable function
//   - staleallow: no allow directive that suppresses nothing
//
// Rules the compiler or go vet already enforce (escape decisions, lock
// copies, uncalled context cancel funcs) are left to them.
//
// Deliberate exceptions are annotated in-source with
//
//	//detlint:allow <check>[,<check>...] -- <one-line justification>
//
// placed on the offending line, on the line directly above it, or in the
// file's package doc block to silence a check for the whole file.
//
// The engine is built purely on go/ast, go/parser, go/token, and
// go/types, so it adds no dependencies; cmd/detlint is the driver.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the check that fired, and a
// human-readable message. The driver renders it as
// "file:line:col: [check] message".
type Diagnostic struct {
	Check   string         `json:"check"`
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Message string         `json:"message"`
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Check is one analyzer: a name (used in diagnostics and allow
// directives), a one-line doc string, and a Run function invoked once
// per package.
type Check struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries everything one check needs to analyze one package and
// report findings. Reportf applies the allow-directive filter, so checks
// never see suppression logic. Interprocedural checks additionally use
// Graph (the module-wide call graph) and Ran (the names of every check
// in this invocation, which staleallow needs to judge directives
// fairly).
type Pass struct {
	Check *Check
	Pkg   *Package
	Graph *Graph
	Ran   []string

	diags *[]Diagnostic
}

// Fset returns the file set shared by every package in the load.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Reportf records a diagnostic at pos unless an allow directive
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.allowed(p.Check.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.Check.Name,
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Checks returns the full analyzer suite in stable order. The
// syntactic checks come first, then the interprocedural ones;
// staleallow is last because it judges the suppression usage the
// other checks record as they run.
func Checks() []*Check {
	return []*Check{
		WalltimeCheck,
		GlobalrandCheck,
		MaporderCheck,
		EnvreadCheck,
		ErrdropCheck,
		TaintCheck,
		GorleakCheck,
		LockheldCheck,
		CloseleakCheck,
		BodycloseCheck,
		TickleakCheck,
		DeferhotCheck,
		StaleallowCheck,
	}
}

// CheckByName returns the named check, or nil.
func CheckByName(name string) *Check {
	for _, c := range Checks() {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Run executes the given checks over the given packages and returns the
// combined diagnostics sorted by file, line, column, and check name.
// The module call graph is built once and shared by every
// interprocedural check; the whole pipeline is single-threaded and
// iterates in sorted order, so identical inputs produce byte-identical
// diagnostics regardless of GOMAXPROCS.
func Run(pkgs []*Package, checks []*Check) []Diagnostic {
	graph := BuildGraph(pkgs)
	ran := make([]string, len(checks))
	for i, c := range checks {
		ran[i] = c.Name
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, c := range checks {
			pass := &Pass{Check: c, Pkg: pkg, Graph: graph, Ran: ran, diags: &diags}
			c.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return diags
}

// allowDirective is one parsed //detlint:allow comment. used records
// whether the directive suppressed at least one finding this run —
// the staleallow check reports directives whose usage never registers.
type allowDirective struct {
	file      string
	line      int       // line the directive sits on
	pos       token.Pos // for reporting staleness at the directive
	fileLevel bool      // directive in the package doc block: whole-file scope
	checks    map[string]bool
	used      bool
}

// parseAllows extracts //detlint:allow directives from a parsed file.
// A directive in the file's doc block (any comment that ends before the
// package keyword) applies to the whole file; any other directive applies
// to its own line and the line directly below it.
func parseAllows(fset *token.FileSet, f *ast.File) []*allowDirective {
	var out []*allowDirective
	pkgLine := fset.Position(f.Package).Line
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "detlint:allow") {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, "detlint:allow"))
			// Strip the justification: everything after " -- " or the
			// first space-separated field is the check list.
			if i := strings.Index(rest, "--"); i >= 0 {
				rest = strings.TrimSpace(rest[:i])
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue
			}
			checks := make(map[string]bool)
			for _, name := range strings.Split(fields[0], ",") {
				if name = strings.TrimSpace(name); name != "" {
					checks[name] = true
				}
			}
			pos := fset.Position(c.Pos())
			out = append(out, &allowDirective{
				file:      pos.Filename,
				line:      pos.Line,
				pos:       c.Pos(),
				fileLevel: pos.Line < pkgLine,
				checks:    checks,
			})
		}
	}
	return out
}

// allowed reports whether a diagnostic from check at position is
// suppressed by a directive in the package, marking the directive used
// so staleallow can tell live suppressions from rot.
func (p *Package) allowed(check string, pos token.Position) bool {
	for _, d := range p.allows {
		if d.file != pos.Filename || !d.checks[check] {
			continue
		}
		if d.fileLevel || d.line == pos.Line || d.line == pos.Line-1 {
			d.used = true
			return true
		}
	}
	return false
}
