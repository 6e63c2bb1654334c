package hisparserve

// Single-flight under contention: many goroutines hammer the most
// expensive endpoint on a cold server and the build machinery must run
// each build exactly once, hand every caller byte-identical payloads,
// and stay -race clean.

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"testing"
)

func TestSingleFlightUnderContention(t *testing.T) {
	const n = 32
	s, ts := startTestServer(t, testConfig())

	type result struct {
		status int
		etag   string
		hash   string
		err    error
	}
	results := make([]result, n)

	var release sync.WaitGroup
	release.Add(1)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			release.Wait() // maximize overlap: all fire together
			req, err := http.NewRequest("GET", ts.URL+"/v1/dataset/0?wait=1", nil)
			if err != nil {
				results[i].err = err
				return
			}
			req.Header.Set("Accept-Encoding", "identity")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				results[i].err = err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				results[i].err = err
				return
			}
			results[i] = result{status: resp.StatusCode, etag: resp.Header.Get("ETag"), hash: bodyHash(body)}
		}(i)
	}
	release.Done()
	wg.Wait()

	first := results[0]
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if r.status != 200 {
			t.Errorf("request %d: status %d", i, r.status)
		}
		if r != first {
			t.Errorf("request %d diverged: %+v vs %+v", i, r, first)
		}
	}

	// The expensive builds each ran exactly once despite n concurrent
	// triggers — the single-flight contract.
	for _, c := range []string{"build.study", "build.snapshot", "build.payload"} {
		if got := s.Stats().Counter(c); got != 1 {
			t.Errorf("%s ran %d times, want 1", c, got)
		}
	}
	if got := s.Stats().Snapshot().Counters[`http.requests{code="200"}`]; got != n {
		t.Errorf("served %d × 200, want %d", got, n)
	}
}

// TestSiteSingleFlightPerWeek sends 16 goroutines at one unbuilt site
// on each of two weeks, on a cold server. Each week's snapshot and each
// site payload is built once, through the flights, and every answer is
// the same: the ones that raced the build and the ones served after it
// from the snapshot's site slot.
func TestSiteSingleFlightPerWeek(t *testing.T) {
	const n = 16
	cfg := testConfig()
	// Another server with the same config has the same lists: it names
	// each week's site without building anything on the one under test.
	ref := New(cfg)
	domains := make([]string, cfg.Weeks)
	for w := range domains {
		snap, err := ref.getSnapshot(w)
		if err != nil {
			t.Fatal(err)
		}
		domains[w] = snap.list.Sets[len(snap.list.Sets)-1].Domain
	}
	ref.builds.Wait()
	s, ts := startTestServer(t, cfg)

	type result struct {
		status     int
		etag, hash string
	}
	get := func(w int) (result, error) {
		resp, err := http.Get(ts.URL + "/v1/site/" + strconv.Itoa(w) + "/" + domains[w])
		if err != nil {
			return result{}, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return result{status: resp.StatusCode, etag: resp.Header.Get("ETag"), hash: bodyHash(body)}, err
	}

	results := make([][]result, cfg.Weeks)
	for w := range results {
		results[w] = make([]result, n)
	}
	errs := make(chan error, n*cfg.Weeks)
	var release, wg sync.WaitGroup
	release.Add(1)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			release.Wait()
			for j := range cfg.Weeks {
				w := (i + j) % cfg.Weeks // half the goroutines start on each week
				r, err := get(w)
				if err != nil {
					errs <- err
				}
				results[w][i] = r
			}
		}(i)
	}
	release.Done()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for w, rs := range results {
		if rs[0].status != http.StatusOK || rs[0].etag == "" {
			t.Fatalf("week %d: first answer %+v", w, rs[0])
		}
		for i, r := range rs {
			if r != rs[0] {
				t.Errorf("week %d request %d: %+v, want %+v", w, i, r, rs[0])
			}
		}
		snap := s.ready[w].Load()
		if snap == nil || snap.sites[snap.index[domains[w]]].Load() == nil {
			t.Errorf("week %d: the built snapshot or site payload is not in its slot", w)
		}
		// Served from the slot now: the same answer, and no build.
		if r, err := get(w); err != nil || r != rs[0] {
			t.Errorf("week %d after the build: %+v (%v), want %+v", w, r, err, rs[0])
		}
	}
	if got := s.Stats().Counter("build.snapshot"); got != int64(cfg.Weeks) {
		t.Errorf("build.snapshot = %d, want %d (one per week)", got, cfg.Weeks)
	}
	if got := s.Stats().Counter("build.payload"); got != int64(cfg.Weeks) {
		t.Errorf("build.payload = %d, want %d (one per week and site)", got, cfg.Weeks)
	}

	resp, body := do(t, "GET", ts.URL+"/v1/jobs", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/jobs: status %d", resp.StatusCode)
	}
	var jobs struct{ Payloads []buildInfo }
	if err := json.Unmarshal(body, &jobs); err != nil {
		t.Fatal(err)
	}
	state := make(map[string]string)
	for _, b := range jobs.Payloads {
		state[b.Key] = b.State
	}
	for w, d := range domains {
		if key := "site/" + strconv.Itoa(w) + "/" + d; state[key] != "ready" {
			t.Errorf("/v1/jobs lists %s as %q, want ready", key, state[key])
		}
	}
}

// TestSiteSlotsServeTheirOwnSite requests every site of every week
// twice, so the second answer comes from the site's slot: it must be the
// first answer again, and name the site asked for.
func TestSiteSlotsServeTheirOwnSite(t *testing.T) {
	cfg := testConfig()
	s, ts := startTestServer(t, cfg)
	for w := range cfg.Weeks {
		snap, err := s.getSnapshot(w)
		if err != nil {
			t.Fatal(err)
		}
		for pass := range 2 {
			for _, set := range snap.list.Sets {
				url := ts.URL + "/v1/site/" + strconv.Itoa(w) + "/" + set.Domain
				resp, body := do(t, "GET", url, nil)
				var doc siteDoc
				if err := json.Unmarshal(body, &doc); err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("pass %d %s: status %d, %v", pass, url, resp.StatusCode, err)
				}
				if doc.Week != w || doc.Domain != set.Domain {
					t.Errorf("pass %d %s: served week %d site %s", pass, url, doc.Week, doc.Domain)
				}
			}
		}
	}
}

// TestConcurrentMixedRoutes stresses distinct keys concurrently: builds
// for different keys proceed independently and each still runs once.
func TestConcurrentMixedRoutes(t *testing.T) {
	s, ts := startTestServer(t, testConfig())
	paths := []string{
		"/v1/list/0?wait=1", "/v1/list/1?wait=1",
		"/v1/churn/0/1?wait=1", "/v1/dataset/0?wait=1", "/v1/lists",
	}
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, len(paths)*rounds)
	for r := 0; r < rounds; r++ {
		for _, p := range paths {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				resp, err := http.Get(ts.URL + p)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmtError(p, resp.StatusCode)
				}
			}(p)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Two snapshots (weeks 0 and 1) feed five payload keys and one study.
	if got := s.Stats().Counter("build.snapshot"); got != 2 {
		t.Errorf("build.snapshot = %d, want 2", got)
	}
	if got := s.Stats().Counter("build.payload"); got != int64(len(paths)) {
		t.Errorf("build.payload = %d, want %d", got, len(paths))
	}
	if got := s.Stats().Counter("build.study"); got != 1 {
		t.Errorf("build.study = %d, want 1", got)
	}
}

func fmtError(path string, status int) error {
	return &statusError{path: path, status: status}
}

type statusError struct {
	path   string
	status int
}

func (e *statusError) Error() string {
	return e.path + ": unexpected status " + http.StatusText(e.status)
}
