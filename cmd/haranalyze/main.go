// Command haranalyze runs the study's analysis stack over a directory of
// HAR files — the released-analysis-scripts side of the paper's
// artifact. Landing pages (root documents) and internal pages are split
// by URL, per-page metrics are printed as CSV, and the landing-vs-
// internal aggregate comparison is summarized on stderr. The warm legs
// of a -warm bundle (<url>.warm.har.json) are a leg of their own: their
// rows follow the cold leg's, marked warm in the leg column, and they
// get their own summary.
//
// Pair it with webmeasure, whose -har bundle holds the logs behind its
// CSV and the study's Easylist:
//
//	webmeasure -sites 20 -fetches 1 -har hars/ > study.csv
//	haranalyze -dir hars/ -filters hars/easylist.txt > pages.csv
//
// Every column of pages.csv but leg and transfer_bytes then equals the
// same URL's column in study.csv (at -fetches 1; more fetches medianize
// the study's landing timings). transfer_bytes is what the load fetched
// over the network: bytes on a cold load, and on a warm leg the
// warm_transfer_bytes of webmeasure -warm's CSV, which leaves out what
// the cache served.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/adblock"
	"repro/internal/cdndetect"
	"repro/internal/core"
	"repro/internal/har"
	"repro/internal/psl"
	"repro/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams passed in.
// It returns the exit status: 2 for a bad flag, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("haranalyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir     = fs.String("dir", "", "directory of .har.json files (required)")
		filters = fs.String("filters", "", "optional Easylist-format filter file for tracker counting")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *dir == "" {
		fmt.Fprintln(stderr, "haranalyze: -dir is required")
		return 2
	}

	az := core.Analyzers{PSL: psl.Default(), CDN: cdndetect.New(nil)}
	if *filters != "" {
		data, err := os.ReadFile(*filters)
		if err != nil {
			return fail(stderr, err)
		}
		engine, skipped := adblock.Compile(strings.Split(string(data), "\n"))
		fmt.Fprintf(stderr, "compiled %d filter rules (%d skipped)\n", engine.Len(), skipped)
		az.Adblock = engine
	}

	paths, err := filepath.Glob(filepath.Join(*dir, "*.har.json"))
	if err != nil {
		return fail(stderr, err)
	}
	if len(paths) == 0 {
		return fail(stderr, fmt.Errorf("no .har.json files in %s", *dir))
	}
	sort.Strings(paths)

	// A -warm bundle holds each page's cold leg as <url>.har.json and its
	// warm revisit as <url>.warm.har.json. The legs are analysed apart:
	// a warm load is a different measurement of the same URL.
	var legs [2][]string
	for _, p := range paths {
		if strings.HasSuffix(p, ".warm.har.json") {
			legs[1] = append(legs[1], p)
		} else {
			legs[0] = append(legs[0], p)
		}
	}
	fmt.Fprintln(stdout, "url,page_type,bytes,objects,plt_ms,onload_ms,noncacheable,cdn_bytes,domains,handshakes,trackers,depth2plus,transfer_bytes,leg")
	for i, leg := range []string{"cold", "warm"} {
		var landing, internal []core.PageMeasurement
		for _, p := range legs[i] {
			f, err := os.Open(p)
			if err != nil {
				return fail(stderr, err)
			}
			log, err := har.ReadJSON(f)
			// Read-only close after a full decode: no signal in the error.
			_ = f.Close()
			if err != nil {
				fmt.Fprintf(stderr, "haranalyze: skipping %s: %v\n", p, err)
				continue
			}
			m := core.MeasureHAR(log, az)
			kind := "internal"
			if m.IsLanding {
				kind = "landing"
				landing = append(landing, m)
			} else {
				internal = append(internal, m)
			}
			deep := 0
			for d := 2; d < len(m.DepthCounts); d++ {
				deep += m.DepthCounts[d]
			}
			fmt.Fprintf(stdout, "%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s\n",
				m.URL, kind, m.Bytes, m.Objects, m.PLT.Milliseconds(), m.OnLoad.Milliseconds(),
				m.NonCacheable, m.CDNBytes, m.UniqueDomains, m.Handshakes, m.TrackerRequests, deep,
				m.TransferBytes, leg)
		}
		summarize(stderr, leg, landing, internal)
	}
	return 0
}

// summarize prints one leg's landing-vs-internal medians and 90th
// percentiles, when the leg has pages of both kinds.
func summarize(w io.Writer, leg string, landing, internal []core.PageMeasurement) {
	if len(landing) == 0 || len(internal) == 0 {
		return
	}
	quantiles := func(ms []core.PageMeasurement, f func(*core.PageMeasurement) float64) (float64, float64) {
		var xs []float64
		for i := range ms {
			xs = append(xs, f(&ms[i]))
		}
		s := stats.SortedInPlace(xs)
		return s.Median(), s.Quantile(0.9)
	}
	fmt.Fprintf(w, "\n%s leg: %d landing pages, %d internal pages\n", leg, len(landing), len(internal))
	for _, row := range []struct {
		name string
		f    func(*core.PageMeasurement) float64
	}{
		{"bytes", func(m *core.PageMeasurement) float64 { return float64(m.Bytes) }},
		{"objects", func(m *core.PageMeasurement) float64 { return float64(m.Objects) }},
		{"plt_ms", func(m *core.PageMeasurement) float64 { return float64(m.PLT.Milliseconds()) }},
		{"domains", func(m *core.PageMeasurement) float64 { return float64(m.UniqueDomains) }},
		{"handshakes", func(m *core.PageMeasurement) float64 { return float64(m.Handshakes) }},
		{"transfer_bytes", func(m *core.PageMeasurement) float64 { return float64(m.TransferBytes) }},
	} {
		lm, lp90 := quantiles(landing, row.f)
		im, ip90 := quantiles(internal, row.f)
		fmt.Fprintf(w, "%-14s landing median %.0f (p90 %.0f)  internal median %.0f (p90 %.0f)\n",
			row.name, lm, lp90, im, ip90)
	}
}

// fail reports err and returns exit status 1.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "haranalyze: %v\n", err)
	return 1
}
