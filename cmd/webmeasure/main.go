// Command webmeasure fetches the pages of a Hispar list with the
// simulated browser — cold cache, landing pages fetched repeatedly,
// internal pages once, exactly the paper's §3.1 methodology — and writes
// per-page measurements as CSV (or full HAR logs with -har). CSV rows —
// cold measurements, or cold→warm pairs with -warm — are written as
// sites complete, in rank order, so memory stays bounded by the
// engine's reorder window rather than by the list size.
//
// Usage:
//
//	webmeasure -sites 100 -persite 20 -fetches 10 > measurements.csv
//	webmeasure -sites 5 -har hars/   # one HAR JSON per page
//
// The -fault-* flags inject network and resolver faults; the runner
// retries transient failures with exponential backoff in virtual time,
// drops what stays dead, and reports run metrics with -stats. A partial
// CSV is still written when the failure budget (-budget) is exceeded.
// -trace writes the run's spans (cold or -warm) as Chrome trace-event
// JSON; it does not change the CSV.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/browser"
	"repro/internal/cdn"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/hispar"
	"repro/internal/profiling"
	"repro/internal/runstats"
	"repro/internal/search"
	"repro/internal/simnet"
	"repro/internal/toplist"
	"repro/internal/trace"
	"repro/internal/webgen"
)

func main() {
	var (
		seed    = flag.Int64("seed", 42, "RNG seed")
		sites   = flag.Int("sites", 100, "sites to measure")
		perSite = flag.Int("persite", 20, "URLs per site")
		fetches = flag.Int("fetches", 10, "fetches per landing page")
		workers = flag.Int("workers", 0, "parallel site workers (0 = GOMAXPROCS)")
		harDir  = flag.String("har", "", "write HAR JSON files into this directory instead of CSV")
		warm    = flag.Bool("warm", false, "run the cold→warm revisit study (pairs CSV) instead of the cold study")
		revisit = flag.Duration("revisit", 30*time.Minute, "cold→warm revisit delay (with -warm)")

		faultTimeout  = flag.Float64("fault-timeout", 0, "per-request timeout probability")
		faultTruncate = flag.Float64("fault-truncate", 0, "per-request truncation probability")
		faultLoss     = flag.Float64("fault-loss", 0, "per-request retransmit probability")
		dnsFail       = flag.Float64("fault-dns", 0, "transient resolver failure probability")
		retries       = flag.Int("retries", 0, "max load attempts per page (0 = default 3)")
		budget        = flag.Float64("budget", 0, "failure budget as a fraction of sites (0 = default 0.25, negative = unlimited)")
		stats         = flag.Bool("stats", false, "print run metrics to stderr")
		traceOut      = flag.String("trace", "", "write a Chrome trace-event JSON of the study to this file (open in Perfetto)")
		traceDetail   = flag.String("trace-detail", "phases", "trace granularity: sites, loads, fetches, or phases (with -trace)")
		cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile    = flag.String("memprofile", "", "write a post-run heap profile to this file")
	)
	flag.Parse()

	stopCPU, err := profiling.StartCPU(*cpuProfile)
	fatal(err)
	var tracer *trace.Tracer
	if *traceOut != "" {
		detail, err := trace.ParseDetail(*traceDetail)
		if err != nil {
			profiling.StopAll() // flag error exits past the explicit stop
			fmt.Fprintf(os.Stderr, "webmeasure: %v\n", err)
			os.Exit(2)
		}
		tracer = trace.New(detail)
	}

	u := toplist.NewUniverse(toplist.Config{Seed: *seed, Size: maxInt(4000, *sites*3)})
	bootstrap := u.Top(*sites * 7 / 5)
	seeds := make([]webgen.SiteSeed, len(bootstrap))
	for i, e := range bootstrap {
		seeds[i] = webgen.SiteSeed{Domain: e.Domain, Rank: e.Rank}
	}
	web := webgen.Generate(webgen.Config{Seed: *seed, Sites: seeds})
	eng := search.New(web, search.Config{EnglishOnly: true})
	list, _, err := hispar.Build(eng, bootstrap, hispar.BuildConfig{
		Sites: *sites, URLsPerSite: *perSite, MinResults: 5,
	})
	fatal(err)

	if *harDir != "" {
		writeHARs(web, list, *seed, *harDir)
		finishProfiles(stopCPU, *memProfile)
		return
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
	fatal(err)
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
		sink, err := core.NewWarmCSVSink(os.Stdout)
		fatal(err)
		res, err := st.RunWarmStream(list, core.WarmConfig{
			RevisitDelay: *revisit, Trace: tracer, Sinks: []core.Sink[core.WarmSiteResult]{sink},
		})
		n, failed, snap, runErr = len(res.Outcomes), res.FailedSites(), res.Stats, err
	} else {
		sink, err := core.NewCSVSink(os.Stdout)
		fatal(err)
		res, err := st.RunStream(list, core.StreamConfig{Sinks: []core.SiteSink{sink}, Trace: tracer})
		n, failed, snap, runErr = len(res.Outcomes), res.FailedSites(), res.Stats, err
	}
	if *stats || failed > 0 {
		fmt.Fprintf(os.Stderr, "webmeasure: %d/%d sites measured, %d failed (streamed: peak %d in flight)\n",
			n-failed, n, failed, int(snap.Gauges["stream.inflight.max"]))
		if *stats {
			snap.Render(os.Stderr)
			printMemReport(os.Stderr)
		}
	}
	writeTrace(tracer, *traceOut, *stats)
	finishProfiles(stopCPU, *memProfile)
	fatal(runErr)
}

// writeTrace dumps the tracer's spans, if tracing is on, as a Chrome
// trace-event file, plus a per-category summary on stderr with -stats.
// It runs even after a failed study: a partial trace is still a timeline
// of what did happen.
func writeTrace(tr *trace.Tracer, path string, summary bool) {
	if tr == nil {
		return
	}
	f, err := os.Create(path)
	fatal(err)
	if err := tr.WriteChromeJSON(f); err != nil {
		_ = f.Close()
		fatal(err)
	}
	fatal(f.Close())
	if summary {
		tr.Summary(os.Stderr)
	}
}

// finishProfiles flushes the -cpuprofile/-memprofile outputs; explicit
// rather than deferred because fatal exits skip defers.
func finishProfiles(stopCPU func(), memPath string) {
	stopCPU()
	fatal(profiling.WriteHeap(memPath))
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

// writeHARs fetches each page once and dumps full HAR documents.
func writeHARs(web *webgen.Web, list *hispar.List, seed int64, dir string) {
	fatal(os.MkdirAll(dir, 0o755))
	resolver := dnssim.NewResolver(dnssim.ResolverConfig{
		Name: "isp", Seed: seed, WarmQueryRate: 0.8,
	}, web.Authority(), nil)
	warm := cdn.PopularityWarmth(2.2, 0.97)
	b, err := browser.New(browser.Config{
		Seed:     seed,
		Resolver: resolver,
		CDNFactory: func() *cdn.Network {
			return cdn.NewNetwork(1<<14, warm, seed)
		},
	})
	fatal(err)
	n := 0
	start := time.Now() //detlint:allow walltime,taint -- operator progress banner on stderr; the HAR bytes carry only virtual-clock timings
	for _, set := range list.Sets {
		urls := append([]string{set.Landing}, set.Internal...)
		for _, u := range urls {
			page, ok := web.PageByURL(u)
			if !ok {
				continue
			}
			model := page.Build()
			log, err := b.Load(model, 0)
			fatal(err)
			name := sanitize(u) + ".har.json"
			f, err := os.Create(filepath.Join(dir, name))
			fatal(err)
			bw := bufio.NewWriterSize(f, 1<<16)
			fatal(log.WriteJSON(bw))
			fatal(bw.Flush())
			fatal(f.Close())
			n++
		}
	}
	//detlint:allow walltime -- operator progress banner, not a measurement
	fmt.Fprintf(os.Stderr, "wrote %d HAR files to %s in %v\n", n, dir, time.Since(start).Round(time.Millisecond))
}

func sanitize(u string) string {
	r := strings.NewReplacer("://", "_", "/", "_", "?", "_", "&", "_", "=", "_")
	s := r.Replace(u)
	if len(s) > 150 {
		s = s[:150]
	}
	return s
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	if err != nil {
		// os.Exit skips defers: flush any profile still running so a
		// failed run leaves a readable file instead of a truncated one.
		profiling.StopAll()
		fmt.Fprintf(os.Stderr, "webmeasure: %v\n", err)
		os.Exit(1)
	}
}
