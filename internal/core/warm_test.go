package core

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/har"
	"repro/internal/hispar"
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
	checkLoadAccounting(t, res.List, res.Outcomes, res.Stats)
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

// siteFields are the PageMeasurement fields MeasureHAR leaves zero: the
// DOM and site facts a HAR does not hold.
var siteFields = map[string]bool{"Domain": true, "Rank": true, "Category": true, "Hints": true, "AdSlots": true}

// TestWarmLegsKeepScalarsOnly pins what both legs of a kept warm pair
// carry, on a clean and on a faulted study: every field MeasureHAR
// derives from the leg's log, except the slices, which are nil. It walks
// the struct's fields by reflection, so a slice field added to
// PageMeasurement fails here until its warm behaviour is decided.
func TestWarmLegsKeepScalarsOnly(t *testing.T) {
	clean, list := allocStudy(t)
	web, flist := faultWeb(t)
	faulted, err := NewStudy(web, StudyConfig{Seed: 7, DNSFailProb: 0.03, FailureBudget: -1,
		Faults: simnet.FaultConfig{Rates: simnet.FaultRates{Timeout: 0.03, Truncate: 0.03}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name string
		st   *Study
		list *hispar.List
	}{{"clean", clean, list}, {"faulted", faulted, flist}} {
		az := run.st.Analyzers()
		var mu sync.Mutex
		twins := make(map[string]PageMeasurement) // by leg, then URL
		hook := func(log *har.Log, warm bool) error {
			m := MeasureHAR(log, az)
			mu.Lock()
			defer mu.Unlock()
			twins[legName(warm)+" "+log.Page.URL] = m
			return nil
		}
		res, err := run.st.RunWarm(run.list, WarmConfig{Logs: hook})
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		retries, legs := 0, 0
		for _, o := range res.Outcomes {
			retries += o.Retries
		}
		check := func(leg *PageMeasurement, warm bool) {
			t.Helper()
			key := legName(warm) + " " + leg.URL
			twin, ok := twins[key]
			if !ok {
				t.Fatalf("%s: no log reached the hook for the kept %s", run.name, key)
			}
			v, w := reflect.ValueOf(*leg), reflect.ValueOf(twin)
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				switch {
				case f.Type.Kind() == reflect.Slice:
					if !v.Field(i).IsNil() {
						t.Errorf("%s: %s keeps %s %v, want nil", run.name, key, f.Name, v.Field(i))
					}
				case siteFields[f.Name]:
				case !reflect.DeepEqual(v.Field(i).Interface(), w.Field(i).Interface()):
					t.Errorf("%s: %s has %s %v, its log's MeasureHAR %v", run.name, key, f.Name, v.Field(i), w.Field(i))
				}
			}
			legs++
		}
		for i := range res.Sites {
			s := &res.Sites[i]
			for _, p := range append([]PagePair{s.Landing}, s.Internal...) {
				check(&p.Cold, false)
				check(&p.Warm, true)
			}
		}
		if legs == 0 || (run.name == "faulted" && retries == 0) {
			t.Errorf("%s: %d legs checked, %d retries: the study tests no kept leg", run.name, legs, retries)
		}
	}
}

// legName names a pair's leg.
func legName(warm bool) string {
	if warm {
		return "warm"
	}
	return "cold"
}
