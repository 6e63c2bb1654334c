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
	"flag"
	"fmt"
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
	var (
		seed       = flag.Int64("seed", 42, "root RNG seed")
		sites      = flag.Int("sites", 1000, "H1K-style list size")
		perSite    = flag.Int("persite", 20, "URLs per site (1 landing + N-1 internal)")
		fetches    = flag.Int("fetches", 10, "fetches per landing page")
		expList    = flag.String("exp", "", "comma-separated experiment IDs (default: all)")
		weeks      = flag.Int("weeks", 10, "stability experiment weeks")
		uniSize    = flag.Int("universe", 130000, "stability universe size")
		h2k        = flag.Int("h2ksites", 2000, "H2K list size (stability/cost)")
		crawlN     = flag.Int("crawl", 5000, "exhaustive-crawl pages per site")
		revisit    = flag.Duration("revisit", 30*time.Minute, "cold→warm revisit delay (warm experiment)")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		plot       = flag.Bool("plot", false, "render each report's series as ASCII charts")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON of the cold H1K study to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a post-run heap profile to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	stopCPU, err := profiling.StartCPU(*cpuProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "papereval: %v\n", err)
		os.Exit(1)
	}
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

	var selected []experiments.Experiment
	if *expList == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*expList, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.ByID(id)
			if !ok {
				profiling.StopAll() // exit skips stopCPU below: flush the profile
				fmt.Fprintf(os.Stderr, "papereval: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	failed := 0
	for _, e := range selected {
		start := time.Now() //detlint:allow walltime,taint -- per-experiment run timestamp for the operator only; the CSV-writer path the analyzer sees is the CHA edge into CSVSink, which papereval never installs
		rep, err := e.Run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "papereval: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Print(rep.String())
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
			fmt.Print(asciiplot.Render(series, asciiplot.Options{XLabel: rep.Title}))
		}
		//detlint:allow walltime -- per-experiment run timestamp for the operator, not a measurement
		fmt.Printf("-- %s completed in %v --\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if tracer != nil {
		if err := writeTrace(tracer, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "papereval: trace: %v\n", err)
			failed++
		} else if tracer.Len() == 0 {
			fmt.Fprintln(os.Stderr, "papereval: note: -trace wrote no spans (only experiments that read the cold H1K study record them)")
		}
	}
	stopCPU()
	if err := profiling.WriteHeap(*memProfile); err != nil {
		fmt.Fprintf(os.Stderr, "papereval: %v\n", err)
		failed++
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// writeTrace dumps the tracer's spans as a Chrome trace-event file.
func writeTrace(tr *trace.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeJSON(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
