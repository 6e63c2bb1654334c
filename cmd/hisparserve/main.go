// Command hisparserve runs the Hispar control plane — the serving
// analogue of hisparctl's batch tooling: a long-running HTTP server that
// publishes list snapshots, churn diffs, per-site URL sets, and study
// measurement datasets to many concurrent clients (the way the paper's
// list is served from hispar.cs.duke.edu), plus the seeded load
// generator that exercises it.
//
// Usage:
//
//	hisparserve serve -addr :8420 -seed 42 -weeks 4
//	hisparserve loadgen -url http://localhost:8420 -n 10000 -clients 8
//	hisparserve smoke -n 12000 -clients 8
//
// smoke boots an ephemeral in-process server, drives the full load
// against it, prints the report plus the server's metrics, and exits
// non-zero if any request failed or returned a status outside {2xx,
// 304} — the CI serve-smoke gate.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/hisparserve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run runs one subcommand and returns the process's exit code: 2 for a
// usage error, 1 for a failure.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		return usage(stderr)
	}
	switch args[0] {
	case "serve":
		return cmdServe(args[1:], stderr)
	case "loadgen":
		return cmdLoadgen(args[1:], stdout, stderr)
	case "smoke":
		return cmdSmoke(args[1:], stdout, stderr)
	default:
		return usage(stderr)
	}
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: hisparserve {serve|loadgen|smoke} [flags]")
	return 2
}

// newFlagSet returns a subcommand's flag set: parse errors are returned,
// not fatal, and are reported on stderr.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseExit is the exit code of a failed flag parse, as
// flag.ExitOnError would exit: 0 after -h, 2 for a usage error.
func parseExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// serverFlags registers the Config knobs shared by serve and smoke.
func serverFlags(fs *flag.FlagSet) *hisparserve.Config {
	cfg := &hisparserve.Config{}
	fs.Int64Var(&cfg.Seed, "seed", 42, "RNG seed (same seed, same bytes)")
	fs.IntVar(&cfg.Weeks, "weeks", 4, "weekly snapshots served")
	fs.IntVar(&cfg.Sites, "sites", 24, "sites per snapshot")
	fs.IntVar(&cfg.URLsPerSite, "persite", 8, "URLs per site")
	fs.IntVar(&cfg.Universe, "universe", 1500, "top-list universe size")
	fs.IntVar(&cfg.StudySites, "studysites", 8, "sites measured per dataset")
	fs.DurationVar(&cfg.MaxAge, "maxage", 5*time.Minute, "freshness lifetime on cacheable payloads")
	fs.Float64Var(&cfg.RatePerSec, "rate", 0, "API rate limit in requests/sec (0 disables)")
	fs.IntVar(&cfg.Burst, "burst", 0, "rate-limit burst size")
	fs.BoolVar(&cfg.EnablePprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ (exposes process internals)")
	fs.IntVar(&cfg.TraceSpans, "tracespans", 0, "request spans kept for /debug/tracez (0 = default 256)")
	return cfg
}

func cmdServe(args []string, stderr io.Writer) int {
	fs := newFlagSet("serve", stderr)
	cfg := serverFlags(fs)
	var (
		addr  = fs.String("addr", "127.0.0.1:8420", "listen address")
		drain = fs.Duration("drain", 10*time.Second, "graceful shutdown drain deadline")
	)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}

	s := hisparserve.New(*cfg)
	bound, err := s.Start(*addr)
	if err != nil {
		fmt.Fprintf(stderr, "hisparserve: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "hisparserve: serving on http://%s (ctrl-c to drain and stop)\n", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	fmt.Fprintln(stderr, "hisparserve: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "hisparserve: shutdown: %v\n", err)
		return 1
	}
	s.Stats().Render(stderr)
	return 0
}

// loadFlags registers the LoadConfig knobs shared by loadgen and smoke.
func loadFlags(fs *flag.FlagSet) *hisparserve.LoadConfig {
	lc := &hisparserve.LoadConfig{}
	fs.Int64Var(&lc.Seed, "loadseed", 1, "load generator seed")
	fs.IntVar(&lc.Requests, "n", 10000, "total requests")
	fs.IntVar(&lc.Clients, "clients", 8, "concurrent client streams")
	fs.Float64Var(&lc.ZipfS, "zipf", 1.2, "zipf exponent over site ranks")
	fs.IntVar(&lc.Week, "week", 0, "snapshot week to browse")
	fs.IntVar(&lc.ListEvery, "listevery", 50, "every Nth request fetches the list CSV")
	fs.IntVar(&lc.DatasetEvery, "datasetevery", 200, "every Nth request fetches the study dataset")
	return lc
}

func cmdLoadgen(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("loadgen", stderr)
	lc := loadFlags(fs)
	url := fs.String("url", "http://127.0.0.1:8420", "base URL of a running server")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	return runLoad(*url, *lc, stdout, stderr, nil)
}

func cmdSmoke(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("smoke", stderr)
	cfg := serverFlags(fs)
	lc := loadFlags(fs)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}

	s := hisparserve.New(*cfg)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(stderr, "hisparserve: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "smoke: ephemeral server on http://%s\n", addr)
	return runLoad("http://"+addr, *lc, stdout, stderr, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			return fmt.Errorf("smoke: shutdown: %w", err)
		}
		fmt.Fprintln(stderr, "smoke: server metrics:")
		s.Stats().Render(stderr)
		return nil
	})
}

// runLoad drives the generator, renders its report, runs cleanup, and
// returns 1 when the run, or the cleanup, failed.
func runLoad(baseURL string, lc hisparserve.LoadConfig, stdout, stderr io.Writer, cleanup func() error) int {
	rep, err := hisparserve.RunLoad(baseURL, lc)
	if err != nil {
		fmt.Fprintf(stderr, "hisparserve: %v\n", err)
		if cleanup != nil {
			_ = cleanup()
		}
		return 1
	}
	rep.Render(stdout)
	if cleanup != nil {
		if err := cleanup(); err != nil {
			fmt.Fprintf(stderr, "%v\n", err)
			return 1
		}
	}
	if err := rep.Failures(); err != nil {
		fmt.Fprintf(stderr, "hisparserve: FAIL: %v\n", err)
		return 1
	}
	fmt.Fprintln(stderr, "hisparserve: PASS")
	return 0
}
