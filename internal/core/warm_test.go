package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/simnet"
)

// runWarmStudy runs one cold→warm study over the fault web.
func runWarmStudy(t *testing.T, mutate func(*StudyConfig)) (*WarmStudyResult, error) {
	t.Helper()
	web, list := faultWeb(t)
	cfg := StudyConfig{Seed: 7, LandingFetches: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	st, err := NewStudy(web, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st.RunWarm(list, WarmConfig{RevisitDelay: 30 * time.Minute})
}

// TestWarmStudySavings checks the repeat-view study's core physics on
// every measured pair: warm loads transfer no more bytes and issue no
// more network requests than cold ones, cache activity is visible, and
// per-pair accounting is internally consistent.
func TestWarmStudySavings(t *testing.T) {
	res, err := runWarmStudy(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) == 0 {
		t.Fatal("no sites measured")
	}
	hits, revals := 0, 0
	check := func(domain string, p *PagePair) {
		t.Helper()
		if p.Cold.TransferBytes != p.Cold.Bytes {
			t.Errorf("%s: cold transfer %d != bytes %d", domain, p.Cold.TransferBytes, p.Cold.Bytes)
		}
		if p.Cold.NetworkRequests != p.Cold.Objects {
			t.Errorf("%s: cold requests %d != objects %d", domain, p.Cold.NetworkRequests, p.Cold.Objects)
		}
		if p.Warm.TransferBytes >= p.Cold.TransferBytes {
			t.Errorf("%s: warm transfer %d not below cold %d", domain, p.Warm.TransferBytes, p.Cold.TransferBytes)
		}
		if p.Warm.Bytes != p.Cold.Bytes {
			t.Errorf("%s: warm page bytes %d != cold %d (cache must replay full bodies)",
				domain, p.Warm.Bytes, p.Cold.Bytes)
		}
		if p.Warm.CacheHits+p.Warm.NetworkRequests != p.Warm.Objects {
			t.Errorf("%s: hits %d + requests %d != objects %d",
				domain, p.Warm.CacheHits, p.Warm.NetworkRequests, p.Warm.Objects)
		}
		if s := p.ByteSavings(); s <= 0 || s > 1 {
			t.Errorf("%s: byte savings %v outside (0, 1]", domain, s)
		}
		hits += p.Warm.CacheHits
		revals += p.Warm.Revalidations
	}
	for i := range res.Sites {
		s := &res.Sites[i]
		check(s.Domain, &s.Landing)
		for j := range s.Internal {
			check(s.Domain, &s.Internal[j])
		}
	}
	if hits == 0 || revals == 0 {
		t.Errorf("warm loads show hits=%d revals=%d; want both > 0 at a 30m revisit", hits, revals)
	}
	if res.Stats.Counters["warm.pairs"] == 0 || res.Stats.Counters["warm.cache.hits"] == 0 {
		t.Errorf("run metrics missing warm counters: %+v", res.Stats.Counters)
	}
}

// TestWarmStudyDeterministic locks the PR's invariants: the warm study
// is byte-identical across runs and across worker counts.
func TestWarmStudyDeterministic(t *testing.T) {
	run := func(workers int) *WarmStudyResult {
		res, err := runWarmStudy(t, func(c *StudyConfig) { c.Workers = workers })
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(0), run(0)
	if !reflect.DeepEqual(a.Sites, b.Sites) {
		t.Fatal("warm measurements differ across identical runs")
	}
	serial, parallel := run(1), run(8)
	if !reflect.DeepEqual(serial.Sites, parallel.Sites) {
		t.Fatal("warm measurements differ between Workers=1 and Workers=8")
	}
	if !reflect.DeepEqual(keysOf(serial.Outcomes), keysOf(parallel.Outcomes)) {
		t.Fatal("warm outcomes differ between Workers=1 and Workers=8")
	}

	// And the CSV artifact is byte-identical too.
	var buf1, buf2 bytes.Buffer
	if err := WriteWarmCSV(&buf1, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteWarmCSV(&buf2, parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("warm CSV differs across runs")
	}
	if lines := strings.Count(buf1.String(), "\n"); lines < len(a.Sites)+1 {
		t.Errorf("warm CSV has %d lines for %d sites", lines, len(a.Sites))
	}
}

// TestWarmStudyUnderFaults injects a moderate fault mix: the runner must
// degrade per its budget (retry, drop pages, keep sites) and still
// produce valid pairs — a faulted revalidation must never corrupt a
// pair that eventually succeeds.
func TestWarmStudyUnderFaults(t *testing.T) {
	res, err := runWarmStudy(t, func(c *StudyConfig) {
		c.Faults = simnet.FaultConfig{Rates: simnet.FaultRates{Timeout: 0.03, Truncate: 0.03}}
		c.DNSFailProb = 0.03
		c.FailureBudget = -1
	})
	if err != nil {
		t.Fatalf("unlimited budget must not error: %v", err)
	}
	if len(res.Sites) == 0 {
		t.Fatal("no sites survived a 3% fault mix")
	}
	retries := 0
	for _, o := range res.Outcomes {
		retries += o.Retries
	}
	if retries == 0 {
		t.Error("no retries at a 3% fault rate — injection is not reaching the warm runner")
	}
	checkLoadAccounting(t, res.Outcomes, res.Stats)
	for i := range res.Sites {
		s := &res.Sites[i]
		pairs := append([]PagePair{s.Landing}, s.Internal...)
		for _, p := range pairs {
			if p.Cold.Objects == 0 || p.Warm.Objects == 0 {
				t.Fatalf("%s: surviving pair carries an empty measurement", s.Domain)
			}
			if p.Warm.TransferBytes > p.Cold.TransferBytes {
				t.Errorf("%s: warm transfer %d exceeds cold %d", s.Domain, p.Warm.TransferBytes, p.Cold.TransferBytes)
			}
		}
	}

	// Determinism holds under faults as well.
	again, err := runWarmStudy(t, func(c *StudyConfig) {
		c.Faults = simnet.FaultConfig{Rates: simnet.FaultRates{Timeout: 0.03, Truncate: 0.03}}
		c.DNSFailProb = 0.03
		c.FailureBudget = -1
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Sites, again.Sites) {
		t.Fatal("faulted warm study differs across identical runs")
	}
}
