package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/har"
)

// studyArtifacts runs the full seeded pipeline — cold study, warm
// revisit study, and the HAR logs both measured — at a given worker count and
// GOMAXPROCS, and returns every byte the run would publish. This is the
// end-to-end witness behind detlint's static contract: if any code path
// consults the wall clock, the global RNG, or map iteration order, some
// byte below changes between two calls.
func studyArtifacts(t *testing.T, workers, procs int) (csv, streamCSV, warmCSV, warmStreamCSV, har []byte) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)

	web, list := faultWeb(t)
	res, err := runStudy(t, web, list, func(c *StudyConfig) { c.Workers = workers })
	if err != nil {
		t.Fatalf("cold study: %v", err)
	}
	var csvBuf bytes.Buffer
	if err := WriteMeasurementsCSV(&csvBuf, res); err != nil {
		t.Fatalf("write csv: %v", err)
	}

	// The same dataset through the streaming engine: RunStream + CSVSink
	// must publish the same bytes at every parallelism setting.
	var streamBuf bytes.Buffer
	sink, err := NewCSVSink(&streamBuf)
	if err != nil {
		t.Fatal(err)
	}
	stStream, err := NewStudy(web, StudyConfig{Seed: 7, LandingFetches: 2, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	// HAR artifacts, the way cmd/webmeasure -har produces them: the
	// logs the streaming runs measured, through their log hooks.
	var coldHARs, warmHARs harCollector
	if _, err := stStream.RunStream(list, StreamConfig{Sinks: []SiteSink{sink}, Logs: coldHARs.hook}); err != nil {
		t.Fatalf("streaming study: %v", err)
	}

	st, err := NewStudy(web, StudyConfig{Seed: 7, LandingFetches: 2, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	warmRes, err := st.RunWarm(list, WarmConfig{RevisitDelay: 30 * time.Minute})
	if err != nil {
		t.Fatalf("warm study: %v", err)
	}
	var warmBuf bytes.Buffer
	if err := WriteWarmCSV(&warmBuf, warmRes); err != nil {
		t.Fatalf("write warm csv: %v", err)
	}

	// The same pairs through the streaming warm engine and WarmCSVSink.
	var warmStreamBuf bytes.Buffer
	warmSink, err := NewWarmCSVSink(&warmStreamBuf)
	if err != nil {
		t.Fatal(err)
	}
	stWarm, err := NewStudy(web, StudyConfig{Seed: 7, LandingFetches: 2, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stWarm.RunWarmStream(list, WarmConfig{RevisitDelay: 30 * time.Minute,
		Sinks: []Sink[WarmSiteResult]{warmSink}, Logs: warmHARs.hook}); err != nil {
		t.Fatalf("streaming warm study: %v", err)
	}

	return csvBuf.Bytes(), streamBuf.Bytes(), warmBuf.Bytes(), warmStreamBuf.Bytes(), append(coldHARs.bytes(), warmHARs.bytes()...)
}

// harCollector is a LogHook target that keeps every log it receives as
// HAR JSON, keyed by page URL and leg, since the hook runs on the
// workers in no fixed order.
type harCollector struct {
	mu   sync.Mutex
	logs map[string][]byte
}

func (c *harCollector) hook(log *har.Log, warm bool) error {
	var buf bytes.Buffer
	if err := log.WriteJSON(&buf); err != nil {
		return err
	}
	key := log.Page.URL + " cold"
	if warm {
		key = log.Page.URL + " warm"
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.logs == nil {
		c.logs = make(map[string][]byte)
	}
	if _, dup := c.logs[key]; dup {
		return fmt.Errorf("%s logged twice", key)
	}
	c.logs[key] = buf.Bytes()
	return nil
}

// bytes concatenates the kept logs in key order.
func (c *harCollector) bytes() []byte {
	keys := make([]string, 0, len(c.logs))
	for k := range c.logs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []byte
	for _, k := range keys {
		out = append(out, c.logs[k]...)
	}
	return out
}

// TestArtifactsInvariantAcrossParallelism is the determinism regression
// test the lint contract points at: the same seeded study run with
// different worker counts AND different GOMAXPROCS must publish
// byte-identical CSV, warm CSV (in memory and streamed), and HAR
// artifacts. Any scheduling dependence — a shared RNG, a wall-clock read
// in a measurement path, an unsorted map emission — shows up here as a
// byte diff.
func TestArtifactsInvariantAcrossParallelism(t *testing.T) {
	csv1, stream1, warm1, warmStream1, har1 := studyArtifacts(t, 1, 1)
	csv8, stream8, warm8, warmStream8, har8 := studyArtifacts(t, 8, runtime.NumCPU())

	if !bytes.Equal(csv1, csv8) {
		t.Errorf("measurement CSV differs between Workers=1/GOMAXPROCS=1 and Workers=8/GOMAXPROCS=%d (%d vs %d bytes)",
			runtime.NumCPU(), len(csv1), len(csv8))
	}
	if !bytes.Equal(stream1, stream8) {
		t.Errorf("streamed CSV differs between parallelism settings (%d vs %d bytes)", len(stream1), len(stream8))
	}
	if !bytes.Equal(stream1, csv1) {
		t.Errorf("streamed CSV differs from in-memory CSV at Workers=1 (%d vs %d bytes)", len(stream1), len(csv1))
	}
	if !bytes.Equal(warm1, warm8) {
		t.Errorf("warm CSV differs between parallelism settings (%d vs %d bytes)", len(warm1), len(warm8))
	}
	if !bytes.Equal(warmStream1, warm1) || !bytes.Equal(warmStream8, warm8) {
		t.Errorf("streamed warm CSV differs from WriteWarmCSV over RunWarm (%d/%d vs %d/%d bytes)",
			len(warmStream1), len(warmStream8), len(warm1), len(warm8))
	}
	if !bytes.Equal(har1, har8) {
		t.Errorf("HAR stream differs between parallelism settings (%d vs %d bytes)", len(har1), len(har8))
	}
	if len(csv1) == 0 || len(warm1) == 0 || len(har1) == 0 {
		t.Fatal("empty artifacts: the pipeline under test produced nothing")
	}
}
