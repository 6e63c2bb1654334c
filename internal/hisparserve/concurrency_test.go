package hisparserve

// Single-flight under contention: many goroutines hammer the most
// expensive endpoint on a cold server and the build machinery must run
// each build exactly once, hand every caller byte-identical payloads,
// and stay -race clean.

import (
	"io"
	"net/http"
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
