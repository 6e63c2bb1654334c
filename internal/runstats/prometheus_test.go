package runstats

import (
	"strconv"
	"strings"
	"testing"
)

func promPage(t *testing.T, s *Set) string {
	t.Helper()
	var b strings.Builder
	if err := s.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestPrometheusCountersAndGauges(t *testing.T) {
	s := NewSet()
	inc(s, "loads.err.timeout", 3)
	inc(s, "http.requests", 2, Label{"code", "200"})
	inc(s, "http.requests", 1, Label{"code", "404"})
	s.SetGauge("worker.0.utilization", 0.75)

	out := promPage(t, s)
	for _, want := range []string{
		"# HELP loads_err_timeout_total runstats series loads.err.timeout\n",
		"# TYPE loads_err_timeout_total counter\n",
		"loads_err_timeout_total 3\n",
		"# TYPE http_requests_total counter\n",
		`http_requests_total{code="200"} 2` + "\n",
		`http_requests_total{code="404"} 1` + "\n",
		"# TYPE worker_0_utilization gauge\n",
		"worker_0_utilization 0.75\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusHistogram(t *testing.T) {
	s := NewSet()
	h := NewHistogram("latency.ms")
	for _, v := range []float64{1, 1, 10, 100} {
		s.Commit(Update{Series: h, Sample: v})
	}
	out := promPage(t, s)
	if !strings.Contains(out, "# TYPE latency_ms histogram\n") {
		t.Fatalf("missing histogram TYPE:\n%s", out)
	}
	if !strings.Contains(out, `latency_ms_bucket{le="+Inf"} 4`) {
		t.Errorf("missing +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, "latency_ms_sum 112\n") || !strings.Contains(out, "latency_ms_count 4\n") {
		t.Errorf("missing _sum/_count:\n%s", out)
	}
	// Buckets must be cumulative and ascending.
	var prev int64 = -1
	var prevLe float64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, `latency_ms_bucket{le="`) || strings.Contains(line, "+Inf") {
			continue
		}
		rest := strings.TrimPrefix(line, `latency_ms_bucket{le="`)
		i := strings.Index(rest, `"} `)
		if i < 0 {
			t.Fatalf("malformed bucket line %q", line)
		}
		le, err1 := strconv.ParseFloat(rest[:i], 64)
		n, err2 := strconv.ParseFloat(rest[i+3:], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bucket line %q: %v %v", line, err1, err2)
		}
		if le <= prevLe || int64(n) < prev {
			t.Fatalf("buckets not ascending/cumulative at %q", line)
		}
		prevLe, prev = le, int64(n)
	}
	if prev < 0 {
		t.Fatalf("no finite buckets emitted:\n%s", out)
	}
}

func TestPrometheusDeterministic(t *testing.T) {
	build := func() string {
		s := NewSet()
		inc(s, "http.requests", 1, Label{"code", "200"})
		inc(s, "http.requests", 4, Label{"code", "304"})
		inc(s, "cache.notready", 2)
		s.SetGauge("g.one", 1.5)
		h := NewHistogram("h.ms")
		s.Commit(Update{Series: h, Sample: 7}, Update{Series: h, Sample: 900})
		var b strings.Builder
		if err := s.Snapshot().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("exposition not deterministic:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	// Families must appear in sorted order.
	var fams []string
	for _, line := range strings.Split(a, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fams = append(fams, strings.Fields(line)[2])
		}
	}
	for i := 1; i < len(fams); i++ {
		if fams[i] <= fams[i-1] {
			t.Fatalf("families not sorted: %v", fams)
		}
	}
}

func TestPrometheusNameSanitization(t *testing.T) {
	s := NewSet()
	inc(s, "weird-name.1", 1)
	inc(s, "m", 1, Label{"bad-key.x", "v"})
	out := promPage(t, s)
	if !strings.Contains(out, "weird_name_1_total 1\n") {
		t.Errorf("metric name not sanitized:\n%s", out)
	}
	if !strings.Contains(out, `m_total{bad_key_x="v"} 1`) {
		t.Errorf("label name not sanitized:\n%s", out)
	}
}
