package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/har"
	"repro/internal/webgen"
	"repro/internal/world"
)

// TestFlagErrors checks the exit statuses of bad invocations: a usage
// error (missing -dir, unknown flag) exits 2 and an input that cannot be
// analysed (no HAR files, unreadable -filters) exits 1, with nothing on
// stdout either way.
func TestFlagErrors(t *testing.T) {
	empty := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"missing -dir", nil, 2},
		{"unknown flag", []string{"-dir", empty, "-nosuch"}, 2},
		{"empty directory", []string{"-dir", empty}, 1},
		{"unreadable -filters", []string{"-dir", empty, "-filters", filepath.Join(empty, "absent.txt")}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", tc.name, code, tc.code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote %q to stdout", tc.name, stdout.String())
		}
	}
}

// TestAnalysisMatchesStudy writes a small study's measured logs and its
// Easylist into a directory, as webmeasure -har does, and requires
// haranalyze to print one row per log whose every column equals the
// study CSV's column of the same name for that URL. The cold study CSV
// has no transfer_bytes: a cold load transfers its bytes.
func TestAnalysisMatchesStudy(t *testing.T) {
	w, err := world.Build(world.Config{Seed: 9, Sites: 4, URLsPerSite: 3, MinResults: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rules := strings.Join(webgen.EasylistFor(w.Web.ThirdParties()), "\n")
	if err := os.WriteFile(filepath.Join(dir, "easylist.txt"), []byte(rules), 0o644); err != nil {
		t.Fatal(err)
	}
	n := 0
	writeLog := func(log *har.Log, _ bool) error {
		n++ // one worker: calls never overlap
		f, err := os.Create(filepath.Join(dir, strings.NewReplacer(":", "_", "/", "_").Replace(log.Page.URL)+".har.json"))
		if err != nil {
			return err
		}
		defer f.Close()
		return log.WriteJSON(f)
	}
	st, err := core.NewStudy(w.Web, core.StudyConfig{Seed: 9, LandingFetches: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var study bytes.Buffer
	sink, err := core.NewCSVSink(&study)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.RunStream(w.List, core.StreamConfig{Sinks: []core.SiteSink{sink}, Logs: writeLog}); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", dir, "-filters", filepath.Join(dir, "easylist.txt")}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	want := rowsByURL(t, &study)
	got := rowsByURL(t, &stdout)
	if len(got) != n || len(want) != n {
		t.Fatalf("%d analysed rows and %d study rows for %d logs", len(got), len(want), n)
	}
	for url, row := range got {
		for name, v := range row {
			if name == "leg" {
				if v != "cold" {
					t.Errorf("%s: leg = %s, want cold", url, v)
				}
				continue
			}
			study := name
			if name == "transfer_bytes" {
				study = "bytes"
			}
			if w := want[url][study]; v != w {
				t.Errorf("%s: %s = %s, study CSV has %s", url, name, v, w)
			}
		}
	}
}

// TestWarmBundleSplitsLegs analyses a -warm bundle, whose every URL has
// a cold log and a warm one: each leg must list each URL once, the cold
// rows first, and each leg gets its own summary. Each row's
// transfer_bytes must equal the warm study CSV's cold_transfer_bytes or
// warm_transfer_bytes for its URL and leg.
func TestWarmBundleSplitsLegs(t *testing.T) {
	w, err := world.Build(world.Config{Seed: 4, Sites: 3, URLsPerSite: 3, MinResults: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	logs := 0
	writeLog := func(log *har.Log, warm bool) error {
		logs++ // one worker: calls never overlap
		name := strings.NewReplacer(":", "_", "/", "_").Replace(log.Page.URL)
		if warm {
			name += ".warm"
		}
		f, err := os.Create(filepath.Join(dir, name+".har.json"))
		if err != nil {
			return err
		}
		defer f.Close()
		return log.WriteJSON(f)
	}
	st, err := core.NewStudy(w.Web, core.StudyConfig{Seed: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var study bytes.Buffer
	sink, err := core.NewWarmCSVSink(&study)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.RunWarmStream(w.List, core.WarmConfig{Sinks: []core.Sink[core.WarmSiteResult]{sink}, Logs: writeLog}); err != nil {
		t.Fatal(err)
	}
	pairs := rowsByURL(t, &study)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	rows, err := csv.NewReader(&stdout).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows)-1 != logs || logs%2 != 0 {
		t.Fatalf("%d rows for %d logs", len(rows)-1, logs)
	}
	col := map[string]int{}
	for i, name := range rows[0] {
		col[name] = i
	}
	seen := map[string]map[string]bool{"cold": {}, "warm": {}}
	for i, row := range rows[1:] {
		leg, url := row[col["leg"]], row[col["url"]]
		wantLeg := "warm"
		if i < logs/2 {
			wantLeg = "cold"
		}
		if leg != wantLeg {
			t.Fatalf("row %d (%s) is in leg %q, want %q", i+1, url, leg, wantLeg)
		}
		if seen[leg][url] {
			t.Errorf("%s appears twice in the %s leg", url, leg)
		}
		if got, want := row[col["transfer_bytes"]], pairs[url][leg+"_transfer_bytes"]; got != want {
			t.Errorf("%s, %s leg: transfer_bytes = %s, study CSV has %s", url, leg, got, want)
		}
		seen[leg][url] = true
	}
	for url := range seen["cold"] {
		if !seen["warm"][url] {
			t.Errorf("%s has a cold row but no warm one", url)
		}
	}
	for _, leg := range []string{"cold", "warm"} {
		if !strings.Contains(stderr.String(), leg+" leg: ") {
			t.Errorf("no %s leg summary on stderr:\n%s", leg, stderr.String())
		}
	}
	if !strings.Contains(stderr.String(), "\ntransfer_bytes ") {
		t.Errorf("no transfer_bytes medians on stderr:\n%s", stderr.String())
	}
}

// rowsByURL reads a CSV into one column-name → value map per URL.
func rowsByURL(t *testing.T, r *bytes.Buffer) map[string]map[string]string {
	t.Helper()
	rows, err := csv.NewReader(r).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]map[string]string, len(rows))
	for _, row := range rows[1:] {
		m := make(map[string]string, len(row))
		for i, name := range rows[0] {
			m[name] = row[i]
		}
		out[m["url"]] = m
	}
	return out
}
