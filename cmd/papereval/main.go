// Command papereval regenerates every table and figure of the paper's
// evaluation from the simulated substrates and prints paper-vs-measured
// rows. Use -exp to select a subset, -sites/-fetches to scale the study.
//
// Example:
//
//	papereval -sites 1000 -fetches 10 > results.txt
//	papereval -exp fig2a,fig2c -sites 300
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/asciiplot"
	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams passed in.
// It returns the exit status: 2 for a bad flag or experiment ID, 1 when
// an experiment or an output file failed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("papereval", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed       = fs.Int64("seed", 42, "root RNG seed")
		sites      = fs.Int("sites", 1000, "H1K-style list size")
		perSite    = fs.Int("persite", 20, "URLs per site (1 landing + N-1 internal)")
		fetches    = fs.Int("fetches", 10, "fetches per landing page")
		expList    = fs.String("exp", "", "comma-separated experiment IDs (default: all)")
		weeks      = fs.Int("weeks", 10, "stability experiment weeks")
		uniSize    = fs.Int("universe", 130000, "stability universe size")
		h2k        = fs.Int("h2ksites", 2000, "H2K list size (stability/cost)")
		crawlN     = fs.Int("crawl", 5000, "exhaustive-crawl pages per site")
		revisit    = fs.Duration("revisit", 30*time.Minute, "cold→warm revisit delay (warm experiment)")
		list       = fs.Bool("list", false, "list experiment IDs and exit")
		plot       = fs.Bool("plot", false, "render each report's series as ASCII charts")
		traceOut   = fs.String("trace", "", "write a Chrome trace-event JSON of the cold H1K study to this file")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a post-run heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var selected []experiments.Experiment
	if *expList == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*expList, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(stderr, "papereval: unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	stopCPU, err := profiling.StartCPU(*cpuProfile)
	if err != nil {
		fmt.Fprintf(stderr, "papereval: %v\n", err)
		return 1
	}
	defer stopCPU() // a failed run still leaves a readable profile
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New(trace.DetailPhases)
	}

	ctx := experiments.NewContext(experiments.Config{
		Seed:              *seed,
		Sites:             *sites,
		PerSite:           *perSite,
		LandingFetches:    *fetches,
		StabilityWeeks:    *weeks,
		StabilityUniverse: *uniSize,
		H2KSites:          *h2k,
		CrawlPages:        *crawlN,
		RevisitDelay:      *revisit,
		Trace:             tracer,
	})

	failed := 0
	for _, e := range selected {
		start := time.Now() //detlint:allow walltime,taint -- per-experiment run timestamp for the operator only; the CSV-writer path the analyzer sees is the CHA edge into CSVSink, which papereval never installs
		rep, err := e.Run(ctx)
		if err != nil {
			fmt.Fprintf(stderr, "papereval: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Fprint(stdout, rep.String())
		if *plot && len(rep.Series) > 0 {
			names := make([]string, 0, len(rep.Series))
			for n := range rep.Series {
				names = append(names, n)
			}
			sort.Strings(names)
			series := make([]asciiplot.Series, 0, len(names))
			for _, n := range names {
				series = append(series, asciiplot.Series{Name: n, Points: rep.Series[n]})
			}
			fmt.Fprint(stdout, asciiplot.Render(series, asciiplot.Options{XLabel: rep.Title}))
		}
		//detlint:allow walltime -- per-experiment run timestamp for the operator, not a measurement
		fmt.Fprintf(stdout, "-- %s completed in %v --\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if tracer != nil {
		if err := tracer.WriteChromeFile(*traceOut); err != nil {
			fmt.Fprintf(stderr, "papereval: trace: %v\n", err)
			failed++
		} else if tracer.Len() == 0 {
			fmt.Fprintln(stderr, "papereval: note: -trace wrote no spans (only experiments that read the cold H1K study record them)")
		}
	}
	stopCPU()
	if err := profiling.WriteHeap(*memProfile); err != nil {
		fmt.Fprintf(stderr, "papereval: %v\n", err)
		failed++
	}
	if failed > 0 {
		return 1
	}
	return 0
}
