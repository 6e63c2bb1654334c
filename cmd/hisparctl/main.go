// Command hisparctl builds, refreshes, and analyzes Hispar lists over the
// simulated web — the open-source tooling analogue the paper releases
// (§3): create a list from a top-list bootstrap and search-engine
// discovery, write it in the public CSV format, regenerate weekly
// snapshots, and compute the two-level churn.
//
// Usage:
//
//	hisparctl build -sites 2000 -persite 50 -out h2k.csv
//	hisparctl weekly -weeks 10 -sites 500 -persite 20
//	hisparctl churn -a week0.csv -b week1.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/hispar"
	"repro/internal/world"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams passed in.
// It returns the exit status: 2 for a bad subcommand or flag, 1 for a
// failed run.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		return usage(stderr)
	}
	switch args[0] {
	case "build":
		return cmdBuild(args[1:], stdout, stderr)
	case "weekly":
		return cmdWeekly(args[1:], stdout, stderr)
	case "churn":
		return cmdChurn(args[1:], stdout, stderr)
	default:
		return usage(stderr)
	}
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: hisparctl {build|weekly|churn} [flags]")
	return 2
}

// bound is one integer flag and the least value it accepts.
type bound struct {
	name string
	val  *int
	min  int
}

// parse parses a subcommand's flags and checks them: no positional
// arguments, every bound met. It returns the exit status for a
// rejected command line, or -1 to go on.
func parse(fs *flag.FlagSet, args []string, stderr io.Writer, bounds ...bound) int {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "hisparctl %s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		return 2
	}
	for _, b := range bounds {
		if *b.val < b.min {
			fmt.Fprintf(stderr, "hisparctl %s: -%s must be at least %d, got %d\n", fs.Name(), b.name, b.min, *b.val)
			return 2
		}
	}
	return -1
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "hisparctl: %v\n", err)
	return 1
}

// worldFlags registers the flags that name a world, with a subcommand's
// list shape as defaults, and the bounds they must meet.
func worldFlags(fs *flag.FlagSet, sites, perSite, minResults int) (*world.Config, []bound) {
	cfg := &world.Config{}
	fs.Int64Var(&cfg.Seed, "seed", 42, "RNG seed")
	fs.IntVar(&cfg.Sites, "sites", sites, "sites per list")
	fs.IntVar(&cfg.URLsPerSite, "persite", perSite, "URLs per site (incl. landing page)")
	fs.IntVar(&cfg.MinResults, "minresults", minResults, "drop sites with fewer search results")
	fs.IntVar(&cfg.Universe, "universe", 20000, "top-list universe size (0 = max(4000, 3×sites))")
	return cfg, []bound{{"sites", &cfg.Sites, 1}, {"persite", &cfg.URLsPerSite, 1},
		{"minresults", &cfg.MinResults, 1}, {"universe", &cfg.Universe, 0}}
}

func cmdBuild(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("build", flag.ContinueOnError)
	cfg, bounds := worldFlags(fs, 2000, 50, 10)
	fs.IntVar(&cfg.Week, "week", 0, "snapshot week")
	out := fs.String("out", "", "output CSV path (default stdout)")
	if code := parse(fs, args, stderr, append(bounds, bound{"week", &cfg.Week, 0})...); code >= 0 {
		return code
	}
	w, err := world.Build(*cfg)
	if err != nil {
		return fail(stderr, err)
	}
	if *out == "" {
		err = w.List.WriteCSV(stdout)
	} else {
		err = writeFile(*out, w.List)
	}
	if err != nil {
		return fail(stderr, err)
	}
	list, stats := w.List, w.Stats
	fmt.Fprintf(stderr, "built %s: %d sites, %d pages; %d sites examined, %d dropped; %d queries ($%.2f)\n",
		list.Name, len(list.Sets), list.Pages(), stats.SitesExamined, stats.SitesDropped, stats.Queries, stats.CostUSD)
	return 0
}

func cmdWeekly(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("weekly", flag.ContinueOnError)
	cfg, bounds := worldFlags(fs, 500, 20, 5)
	weeks := fs.Int("weeks", 10, "number of weekly snapshots")
	if code := parse(fs, args, stderr, append(bounds, bound{"weeks", weeks, 1})...); code >= 0 {
		return code
	}
	var prev *hispar.List
	for cfg.Week = 0; cfg.Week < *weeks; cfg.Week++ {
		w, err := world.Build(*cfg)
		if err != nil {
			return fail(stderr, err)
		}
		if prev != nil {
			fmt.Fprintf(stdout, "week %d: site churn %.3f, internal-URL churn %.3f\n",
				cfg.Week, hispar.SiteChurn(prev, w.List), hispar.InternalChurn(prev, w.List))
		}
		prev = w.List
	}
	return 0
}

func cmdChurn(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("churn", flag.ContinueOnError)
	var (
		a = fs.String("a", "", "first list CSV")
		b = fs.String("b", "", "second list CSV")
	)
	if code := parse(fs, args, stderr); code >= 0 {
		return code
	}
	if *a == "" || *b == "" {
		fmt.Fprintln(stderr, "hisparctl churn: -a and -b are required")
		return 2
	}
	la, err := readList(*a)
	if err != nil {
		return fail(stderr, err)
	}
	lb, err := readList(*b)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "site churn: %.3f\n", hispar.SiteChurn(la, lb))
	fmt.Fprintf(stdout, "internal-URL churn: %.3f\n", hispar.InternalChurn(la, lb))
	return 0
}

// writeFile writes list as CSV to a new file at path.
func writeFile(path string, list *hispar.List) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := list.WriteCSV(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

func readList(path string) (*hispar.List, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return hispar.ReadCSV(f)
}
