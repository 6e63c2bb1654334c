package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// goodTrace renders a real tracer export — the validator must accept
// exactly what internal/trace emits.
func goodTrace(t *testing.T) []byte {
	t.Helper()
	t0 := time.Date(2020, 3, 12, 0, 0, 0, 0, time.UTC)
	tr := trace.New(trace.DetailPhases)
	rec := tr.Recorder(1, 0)
	site := trace.SiteSpanID(0)
	rec.Record(trace.Span{
		ID: site, Name: "site example.org", Cat: "site",
		Start: t0, Dur: 2 * time.Second,
		Attrs: []trace.Attr{{Key: "rank", Val: "1"}},
	})
	rec.Record(trace.Span{
		ID: trace.DeriveID("load", "example.org"), Parent: site,
		Name: "load https://example.org/", Cat: "load",
		Start: t0.Add(100 * time.Millisecond), Dur: time.Second,
	})
	tr.Merge(rec)
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestValidateAcceptsTracerOutput(t *testing.T) {
	n, err := validate(goodTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("validated %d events, want 2", n)
	}
}

func TestValidateRejects(t *testing.T) {
	good := string(goodTrace(t))
	cases := []struct {
		name, doc, wantErr string
	}{
		{"not json", "{", "envelope"},
		{"wrong time unit", strings.Replace(good, `"displayTimeUnit":"ms"`, `"displayTimeUnit":"ns"`, 1), "displayTimeUnit"},
		{"wrong phase", strings.Replace(good, `"ph":"X"`, `"ph":"B"`, 1), "ph ="},
		{"unknown envelope field", strings.Replace(good, `"displayTimeUnit"`, `"extra":1,"displayTimeUnit"`, 1), "envelope"},
		{"dangling parent", strings.Replace(good, `"parent_id":"`, `"parent_id":"00000000000000ff","x":"`, 1), "resolves to no span"},
		{"missing span_id", strings.ReplaceAll(good, `span_id`, `span_xx`), "span_id"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := validate([]byte(c.doc))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, c.wantErr)
			}
		})
	}
}

// TestRunExitCodes drives the CLI in-process: bad usage exits 2, valid
// traces exit 0 (one file, or two identical ones), and two valid traces
// that differ, or a missing file, exit 1.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := goodTrace(t)
	a := write("a.json", good)
	same := write("same.json", good)
	otherTrace := bytes.ReplaceAll(good, []byte("example.org"), []byte("example.net"))
	if _, err := validate(otherTrace); err != nil {
		t.Fatalf("the differing trace must itself be valid: %v", err)
	}
	other := write("other.json", otherTrace)
	cases := []struct {
		name    string
		args    []string
		code    int
		wantErr string
	}{
		{"no argument", nil, 2, "usage"},
		{"three arguments", []string{a, a, a}, 2, "usage"},
		{"one valid trace", []string{a}, 0, "events ok"},
		{"two identical traces", []string{a, same}, 0, "byte-identical"},
		{"two valid traces that differ", []string{a, other}, 1, "not byte-identical"},
		{"missing file", []string{filepath.Join(dir, "missing.json")}, 1, "missing.json"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit = %d, want %d\n%s", code, c.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.wantErr) {
				t.Errorf("stderr %q lacks %q", stderr.String(), c.wantErr)
			}
		})
	}
}
