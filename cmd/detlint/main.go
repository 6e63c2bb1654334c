// Command detlint runs the repository's determinism and concurrency
// lint suite (internal/lint) over every package in the module.
//
//	detlint [-dir .] [-checks walltime,taint] [-format text|json|sarif]
//	        [-o file] [-list] [-leaks]
//
// Exit codes follow the CI contract:
//
//	0 — the tree is clean
//	1 — findings were reported
//	2 — the module failed to load (parse or type error, bad flags)
//
// Diagnostics print as "file:line:col: [check] message" with paths
// relative to the module root. -format json emits a machine-readable
// document recording the checks that ran; -format sarif emits SARIF
// 2.1.0 for GitHub code scanning. A finding is either fixed or carries
// a justified //detlint:allow directive; there is no baseline of
// accepted findings.
//
// -leaks switches to report mode for the resource-lifecycle analysis:
// instead of running checks, emit every tracked acquisition (files,
// connections, response bodies, profile stop funcs, tickers, trace
// recorders) with its resolved fate — released, deferred, transferred,
// or leaked — hot functions first. The report honors -format
// text|json|sarif and -o, and always exits 0 — it is an inventory, not a
// gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("detlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "module root (directory containing go.mod)")
	checksFlag := fs.String("checks", "", "comma-separated checks to run (default: all)")
	format := fs.String("format", "text", "output format: text, json, or sarif")
	outFile := fs.String("o", "", "write output to file instead of stdout")
	list := fs.Bool("list", false, "list available checks and exit")
	leaks := fs.Bool("leaks", false, "emit the resource-lifecycle report instead of running checks")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, c := range lint.Checks() {
			fmt.Fprintf(stdout, "%-12s %s\n", c.Name, c.Doc)
		}
		return 0
	}

	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "detlint: unknown format %q (text, json, sarif)\n", *format)
		return 2
	}

	checks := lint.Checks()
	if *checksFlag != "" {
		checks = checks[:0:0]
		for _, name := range strings.Split(*checksFlag, ",") {
			name = strings.TrimSpace(name)
			c := lint.CheckByName(name)
			if c == nil {
				fmt.Fprintf(stderr, "detlint: unknown check %q (use -list)\n", name)
				return 2
			}
			checks = append(checks, c)
		}
	}

	pkgs, err := lint.LoadModule(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "detlint: %v\n", err)
		return 2
	}

	out := stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fmt.Fprintf(stderr, "detlint: %v\n", err)
			return 2
		}
		defer f.Close()
		out = f
	}

	if *leaks {
		rep := lint.LifecycleReport(pkgs)
		rep.Relativize(*dir)
		if err := renderLeaks(out, *format, rep); err != nil {
			fmt.Fprintf(stderr, "detlint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "detlint: lifecycle report: %d function(s), %d tracked resource(s), %d leak(s)\n",
			len(rep.Functions), rep.TotalResources, rep.Leaks)
		return 0
	}

	diags := lint.Run(pkgs, checks)
	lint.Relativize(diags, *dir)

	if err := render(out, *format, checks, pkgs, diags); err != nil {
		fmt.Fprintf(stderr, "detlint: %v\n", err)
		return 2
	}
	// Whenever the primary stream is machine-readable or a file (the
	// CI-artifact paths), mirror the human-readable diagnostics on stderr
	// so a failing run is debuggable without opening the artifact.
	if *format != "text" || *outFile != "" {
		for _, d := range diags {
			fmt.Fprintln(stderr, d)
		}
	}
	fmt.Fprintf(stderr, "detlint: %d packages, %d findings\n", len(pkgs), len(diags))

	if len(diags) > 0 {
		return 1
	}
	return 0
}

// jsonDoc is the -format json document. Checks records which analyzers
// actually ran: a -checks subset that comes back clean must be
// distinguishable from a full clean run when the artifact is read later.
type jsonDoc struct {
	Packages int               `json:"packages"`
	Checks   []string          `json:"checks"`
	Findings []lint.Diagnostic `json:"findings"`
}

func render(out io.Writer, format string, checks []*lint.Check, pkgs []*lint.Package, diags []lint.Diagnostic) error {
	switch format {
	case "json":
		doc := jsonDoc{
			Packages: len(pkgs),
			Checks:   make([]string, len(checks)),
			Findings: diags,
		}
		for i, c := range checks {
			doc.Checks[i] = c.Name
		}
		if doc.Findings == nil {
			doc.Findings = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	case "sarif":
		return lint.WriteSARIF(out, checks, diags)
	default:
		for _, d := range diags {
			fmt.Fprintln(out, d)
		}
		return nil
	}
}

// lifecycleRule is the synthetic rule the SARIF rendering of the
// lifecycle report carries its sites under.
var lifecycleRule = &lint.Check{
	Name: "lifecycle",
	Doc:  "tracked resource acquisition and its resolved fate (released, deferred, transferred, leaked)",
}

func renderLeaks(out io.Writer, format string, rep *lint.LeakReport) error {
	switch format {
	case "json":
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	case "sarif":
		return lint.WriteSARIF(out, []*lint.Check{lifecycleRule}, rep.Diagnostics())
	default:
		return rep.WriteText(out)
	}
}
