package hisparserve

// The seeded load generator: a fleet of concurrent simulated users whose
// site popularity follows a zipf distribution over the served list's
// ranks — the access pattern a Hispar-scale consumer population
// produces, since real top-list traffic is itself zipf-shaped. Each user
// remembers the validators it has seen and revalidates on revisit, so
// popular sites quickly converge to header-only 304 traffic, exactly the
// steady state the control plane is built to serve. The report carries
// the status tally, the conditional-hit ratio and exact latency
// quantiles from internal/stats.

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/detrand"
	"repro/internal/hispar"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// LoadConfig parameterizes one load run.
type LoadConfig struct {
	// Seed makes the request mix reproducible: same seed, same sequence
	// of (site, conditional) choices per client.
	Seed int64
	// Requests is the total request budget across all clients.
	Requests int
	// Clients is the number of concurrent user streams.
	Clients int
	// ZipfS is the zipf exponent over site ranks (must be > 1; default
	// 1.2, the shallow skew of top-list traffic).
	ZipfS float64
	// Week selects which snapshot the users browse.
	Week int
	// ListEvery makes every Nth request per client fetch the full list
	// CSV (the large, gzip-eligible payload). 0 disables.
	ListEvery int
	// DatasetEvery makes every Nth request per client fetch the study
	// dataset with ?wait=1 (the expensive build). 0 disables.
	DatasetEvery int
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Requests <= 0 {
		c.Requests = 10000
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.ListEvery == 0 {
		c.ListEvery = 50
	}
	return c
}

// StatusCount is one status code's tally in a load report.
type StatusCount struct {
	Status int
	Count  int
}

// LoadReport aggregates one load run.
type LoadReport struct {
	Requests            int
	Errors              int // transport-level failures
	Unexpected          int // responses outside {2xx, 304}
	ByStatus            []StatusCount
	Hits304             int
	HitRatio            float64 // 304s / completed requests
	BytesReceived       int64
	Elapsed             time.Duration
	Throughput          float64 // requests per wall second
	P50ms, P90ms, P99ms float64
}

// RunLoad drives baseURL with cfg and returns the aggregated report.
func RunLoad(baseURL string, cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()

	// Fetch the week's list once to learn the rank→domain mapping every
	// simulated user browses by. The client gets its own transport so the
	// keep-alive connection is torn down when the run ends instead of
	// idling in the process-wide default pool — RunLoad is called from
	// long-running servers (the smoke endpoint), not just the CLI.
	bootTr := &http.Transport{}
	defer bootTr.CloseIdleConnections()
	client := &http.Client{Transport: bootTr}
	listURL := fmt.Sprintf("%s/v1/list/%d?wait=1", baseURL, cfg.Week)
	resp, err := client.Get(listURL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: bootstrap %s: %w", listURL, err)
	}
	list, err := hispar.ReadCSV(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(list.Sets) == 0 {
		return nil, fmt.Errorf("loadgen: bootstrap %s: status %d, parse err %v, %d sites",
			listURL, resp.StatusCode, err, len(list.Sets))
	}
	domains := make([]string, len(list.Sets))
	for i, s := range list.Sets {
		domains[i] = s.Domain
	}

	perClient := cfg.Requests / cfg.Clients
	extra := cfg.Requests % cfg.Clients

	type clientTally struct {
		statuses  map[int]int
		latencies []float64
		bytes     int64
		errors    int
	}
	tallies := make([]clientTally, cfg.Clients)

	start := vclock.Wall() // sanctioned telemetry clock: throughput, not a measurement artifact
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		n := perClient
		if c < extra {
			n++
		}
		wg.Add(1)
		go func(c, n int) {
			defer wg.Done()
			rng := detrand.New(cfg.Seed + int64(c)*7919)
			zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(domains)-1))
			etags := make(map[string]string) // the user's validator memory
			// Per-user transport: connection reuse stays within one
			// simulated user, and the sockets close with the worker
			// rather than accumulating in the shared default pool.
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr}
			ty := &tallies[c]
			ty.statuses = make(map[int]int)
			gzipUser := c%2 == 0 // half the fleet advertises gzip support

			for i := 0; i < n; i++ {
				var url string
				switch {
				case cfg.DatasetEvery > 0 && i%cfg.DatasetEvery == cfg.DatasetEvery-1:
					url = fmt.Sprintf("%s/v1/dataset/%d?wait=1", baseURL, cfg.Week)
				case cfg.ListEvery > 0 && i%cfg.ListEvery == cfg.ListEvery-1:
					url = fmt.Sprintf("%s/v1/list/%d?wait=1", baseURL, cfg.Week)
				default:
					url = fmt.Sprintf("%s/v1/site/%d/%s", baseURL, cfg.Week, domains[zipf.Uint64()])
				}
				req, err := http.NewRequest("GET", url, nil)
				if err != nil {
					ty.errors++
					continue
				}
				if gzipUser {
					req.Header.Set("Accept-Encoding", "gzip")
				}
				if etag := etags[url]; etag != "" {
					req.Header.Set("If-None-Match", etag)
				}
				t0 := vclock.Wall()
				resp, err := hc.Do(req)
				if err != nil {
					ty.errors++
					continue
				}
				body, err := io.ReadAll(resp.Body)
				_ = resp.Body.Close()
				if err != nil {
					ty.errors++
					continue
				}
				lat := vclock.WallSince(t0)
				ty.latencies = append(ty.latencies, float64(lat.Microseconds())/1000)
				ty.statuses[resp.StatusCode]++
				ty.bytes += int64(len(body))
				if etag := resp.Header.Get("ETag"); etag != "" {
					etags[url] = etag
				}
			}
		}(c, n)
	}
	wg.Wait()
	elapsed := vclock.WallSince(start)

	rep := &LoadReport{Elapsed: elapsed}
	statuses := make(map[int]int)
	var lats []float64
	for c := range tallies {
		ty := &tallies[c]
		rep.Errors += ty.errors
		rep.BytesReceived += ty.bytes
		for code, n := range ty.statuses {
			statuses[code] += n
			rep.Requests += n
			if code == http.StatusNotModified {
				rep.Hits304 += n
			} else if code < 200 || code >= 300 {
				rep.Unexpected += n
			}
		}
		lats = append(lats, ty.latencies...)
	}
	codes := make([]int, 0, len(statuses))
	for code := range statuses {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		rep.ByStatus = append(rep.ByStatus, StatusCount{Status: code, Count: statuses[code]})
	}
	if rep.Requests > 0 {
		rep.HitRatio = float64(rep.Hits304) / float64(rep.Requests)
		sorted := stats.NewSorted(lats)
		rep.P50ms = sorted.Quantile(0.50)
		rep.P90ms = sorted.Quantile(0.90)
		rep.P99ms = sorted.Quantile(0.99)
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.Throughput = float64(rep.Requests) / secs
	}
	return rep, nil
}

// Render writes the human-readable load report.
func (r *LoadReport) Render(w io.Writer) {
	fmt.Fprintf(w, "loadgen: %d requests in %.2fs (%.0f req/s), %d transport errors\n",
		r.Requests, r.Elapsed.Seconds(), r.Throughput, r.Errors)
	fmt.Fprintf(w, "latency: p50=%.3fms p90=%.3fms p99=%.3fms\n", r.P50ms, r.P90ms, r.P99ms)
	fmt.Fprintf(w, "conditional hit ratio: %.3f (%d × 304)\n", r.HitRatio, r.Hits304)
	fmt.Fprintf(w, "bytes received: %d\n", r.BytesReceived)
	for _, sc := range r.ByStatus {
		fmt.Fprintf(w, "  status %d: %d\n", sc.Status, sc.Count)
	}
}

// Failures returns a non-nil error when the run saw transport errors or
// responses outside {2xx, 304} — the smoke gate's pass/fail contract.
func (r *LoadReport) Failures() error {
	if r.Errors > 0 || r.Unexpected > 0 {
		return fmt.Errorf("loadgen: %d transport errors, %d unexpected statuses (want only 2xx/304)",
			r.Errors, r.Unexpected)
	}
	return nil
}
