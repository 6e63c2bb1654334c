// Command webmeasure fetches the pages of a Hispar list with the
// simulated browser — cold cache, landing pages fetched repeatedly,
// internal pages once, exactly the paper's §3.1 methodology — and writes
// per-page measurements as CSV. CSV rows — cold measurements, or
// cold→warm pairs with -warm — are written as sites complete, in rank
// order, so memory stays bounded by the engine's reorder window rather
// than by the list size.
//
// Usage:
//
//	webmeasure -sites 100 -persite 20 -fetches 10 > measurements.csv
//	webmeasure -sites 5 -har hars/ > measurements.csv   # plus one HAR JSON per page
//
// -har writes, alongside the CSV of the same run, the HAR log each row
// was measured from (fetch 0 of a landing page; both legs of a pair
// with -warm) and the study's Easylist, so `haranalyze -dir hars/
// -filters hars/easylist.txt` reproduces the CSV's HAR-derived columns.
// -warm and the -fault-* flags apply to the HARs as to the CSV.
//
// The -fault-* flags inject network and resolver faults; the runner
// retries transient failures with exponential backoff in virtual time,
// drops what stays dead, and reports run metrics with -stats. A partial
// CSV is still written when the failure budget (-budget) is exceeded.
// -trace writes the run's spans (cold or -warm) as Chrome trace-event
// JSON; it does not change the CSV.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/har"
	"repro/internal/profiling"
	"repro/internal/runstats"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/webgen"
	"repro/internal/world"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams passed in.
// It returns the exit status: 2 for a bad flag, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("webmeasure", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed    = fs.Int64("seed", 42, "RNG seed")
		sites   = fs.Int("sites", 100, "sites to measure")
		perSite = fs.Int("persite", 20, "URLs per site, landing page included (at least 1)")
		fetches = fs.Int("fetches", 10, "fetches per landing page")
		workers = fs.Int("workers", 0, "parallel site workers (0 = GOMAXPROCS)")
		harDir  = fs.String("har", "", "also write each measured page load's HAR JSON, and the study's Easylist, into this directory")
		warm    = fs.Bool("warm", false, "run the cold→warm revisit study (pairs CSV) instead of the cold study")
		revisit = fs.Duration("revisit", 30*time.Minute, "cold→warm revisit delay (with -warm)")

		faultTimeout  = fs.Float64("fault-timeout", 0, "per-request timeout probability")
		faultTruncate = fs.Float64("fault-truncate", 0, "per-request truncation probability")
		faultLoss     = fs.Float64("fault-loss", 0, "per-request retransmit probability")
		dnsFail       = fs.Float64("fault-dns", 0, "transient resolver failure probability")
		retries       = fs.Int("retries", 0, "max load attempts per page (0 = default 3)")
		budget        = fs.Float64("budget", 0, "failure budget as a fraction of sites (0 = default 0.25, negative = unlimited)")
		stats         = fs.Bool("stats", false, "print run metrics to stderr")
		traceOut      = fs.String("trace", "", "write a Chrome trace-event JSON of the study to this file (open in Perfetto)")
		traceDetail   = fs.String("trace-detail", "phases", "trace granularity: sites, loads, fetches, or phases (with -trace)")
		cpuProfile    = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile    = fs.String("memprofile", "", "write a post-run heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *sites < 1 {
		fmt.Fprintf(stderr, "webmeasure: -sites must be at least 1, got %d\n", *sites)
		return 2
	}
	if *perSite < 1 {
		fmt.Fprintf(stderr, "webmeasure: -persite must be at least 1, got %d\n", *perSite)
		return 2
	}
	var tracer *trace.Tracer
	if *traceOut != "" {
		detail, err := trace.ParseDetail(*traceDetail)
		if err != nil {
			fmt.Fprintf(stderr, "webmeasure: %v\n", err)
			return 2
		}
		tracer = trace.New(detail)
	}

	stopCPU, err := profiling.StartCPU(*cpuProfile)
	if err != nil {
		return fail(stderr, err)
	}
	defer stopCPU() // a failed run still leaves a readable profile
	// H1K drops sites with fewer than 5 search results (§3.1). A
	// smaller URL set asks for fewer, so no site could reach 5.
	w, err := world.Build(world.Config{
		Seed: *seed, Sites: *sites, URLsPerSite: *perSite, MinResults: min(5, *perSite),
	})
	if err != nil {
		return fail(stderr, err)
	}
	web, list := w.Web, w.List
	var logs core.LogHook
	if *harDir != "" {
		if logs, err = harHook(*harDir, web); err != nil {
			return fail(stderr, err)
		}
	}

	st, err := core.NewStudy(web, core.StudyConfig{
		Seed:           *seed,
		LandingFetches: *fetches,
		Workers:        *workers,
		Faults: simnet.FaultConfig{Rates: simnet.FaultRates{
			Timeout: *faultTimeout, Truncate: *faultTruncate, Loss: *faultLoss,
		}},
		DNSFailProb:   *dnsFail,
		MaxAttempts:   *retries,
		FailureBudget: *budget,
	})
	if err != nil {
		return fail(stderr, err)
	}
	// Rows hit stdout as sites retire, cold or -warm, and only outcomes
	// and metrics survive the run. The CSV is written even when the
	// failure budget was breached: partial results are the point of the
	// fault-tolerant runner.
	var (
		n, failed int
		snap      runstats.Snapshot
		runErr    error
	)
	if *warm {
		sink, err := core.NewWarmCSVSink(stdout)
		if err != nil {
			return fail(stderr, err)
		}
		res, err := st.RunWarmStream(list, core.WarmConfig{
			RevisitDelay: *revisit, Trace: tracer, Sinks: []core.Sink[core.WarmSiteResult]{sink}, Logs: logs,
		})
		n, failed, snap, runErr = len(res.Outcomes), res.FailedSites(), res.Stats, err
	} else {
		sink, err := core.NewCSVSink(stdout)
		if err != nil {
			return fail(stderr, err)
		}
		res, err := st.RunStream(list, core.StreamConfig{Sinks: []core.SiteSink{sink}, Trace: tracer, Logs: logs})
		n, failed, snap, runErr = len(res.Outcomes), res.FailedSites(), res.Stats, err
	}
	if *stats || failed > 0 {
		fmt.Fprintf(stderr, "webmeasure: %d/%d sites measured, %d failed\n", n-failed, n, failed)
		if *stats {
			printStats(stderr, snap)
		}
	}
	if err := writeTrace(tracer, *traceOut, *stats, stderr); err != nil {
		return fail(stderr, err)
	}
	if err := finishProfiles(stopCPU, *memProfile); err != nil {
		return fail(stderr, err)
	}
	if runErr != nil {
		return fail(stderr, runErr)
	}
	return 0
}

// writeTrace dumps the tracer's spans, if tracing is on, as a Chrome
// trace-event file, plus a per-category summary on stderr with -stats.
// It runs even after a failed study: a partial trace is still a timeline
// of what did happen.
func writeTrace(tr *trace.Tracer, path string, summary bool, stderr io.Writer) error {
	if tr == nil {
		return nil
	}
	if err := tr.WriteChromeFile(path); err != nil {
		return err
	}
	if summary {
		tr.Summary(stderr)
	}
	return nil
}

// finishProfiles flushes the -cpuprofile/-memprofile outputs: the CPU
// profile stops before the heap snapshot's forced GC.
func finishProfiles(stopCPU func(), memPath string) error {
	stopCPU()
	return profiling.WriteHeap(memPath)
}

// scheduledLine heads the part of the -stats report that depends on
// how sites were scheduled onto workers and on memory. What -stats
// prints before it is a function of the seed and the study flags alone:
// the same bytes at any -workers.
const scheduledLine = "webmeasure: depends on scheduling and memory:"

// printStats writes the -stats report: snap without its worker.* and
// stream.* gauges, then scheduledLine, then those gauges, the peak of
// sites in flight and the memory report. It takes those gauges out of
// snap.
func printStats(w io.Writer, snap runstats.Snapshot) {
	scheduled := runstats.Snapshot{Gauges: make(map[string]float64)}
	for k, v := range snap.Gauges {
		if strings.HasPrefix(k, "worker.") || strings.HasPrefix(k, "stream.") {
			scheduled.Gauges[k] = v
			delete(snap.Gauges, k)
		}
	}
	snap.Render(w)
	fmt.Fprintln(w, scheduledLine)
	scheduled.Render(w)
	fmt.Fprintf(w, "webmeasure: streamed: peak %d sites in flight\n", int(scheduled.Gauges["stream.inflight.max"]))
	printMemReport(w)
}

// printMemReport writes post-run memory numbers: live and cumulative
// heap from the runtime, plus the process peak RSS when the kernel
// exposes it. This is how the streaming engine's constant-memory claim
// is checked from the command line.
func printMemReport(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "webmeasure: heap %.1f MB live, %.1f MB allocated cumulatively, %.1f MB from OS\n",
		float64(ms.HeapAlloc)/1e6, float64(ms.TotalAlloc)/1e6, float64(ms.Sys)/1e6)
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				fmt.Fprintf(w, "webmeasure: peak RSS %s\n",
					strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")))
			}
		}
	}
}

// harHook prepares dir as a self-contained HAR bundle and returns the
// study's log hook that fills it. The bundle holds the study's Easylist
// as easylist.txt (haranalyze -filters reads it) and one <url>.har.json
// per measured page load: fetch 0 of each landing page and each
// internal page, or with -warm each pair's cold leg, beside its warm
// leg as <url>.warm.har.json. These are the logs the CSV rows were
// measured from.
func harHook(dir string, web *webgen.Web) (core.LogHook, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rules := strings.Join(webgen.EasylistFor(web.ThirdParties()), "\n") + "\n"
	if err := os.WriteFile(filepath.Join(dir, "easylist.txt"), []byte(rules), 0o644); err != nil {
		return nil, err
	}
	return func(log *har.Log, warm bool) error {
		name := sanitize(log.Page.URL)
		if warm {
			name += ".warm"
		}
		var buf bytes.Buffer
		if err := log.WriteJSON(&buf); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, name+".har.json"), buf.Bytes(), 0o644)
	}, nil
}

func sanitize(u string) string {
	r := strings.NewReplacer("://", "_", "/", "_", "?", "_", "&", "_", "=", "_")
	s := r.Replace(u)
	if len(s) > 150 {
		s = s[:150]
	}
	return s
}

// fail reports err and returns exit status 1.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "webmeasure: %v\n", err)
	return 1
}
