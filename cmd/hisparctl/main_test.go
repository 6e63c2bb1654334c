package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/hisparserve"
)

// TestRejectsBadFlags checks that out-of-range values and stray
// arguments exit 2 with a message that names them, before any build.
func TestRejectsBadFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.csv")
	for _, tc := range []struct {
		args []string
		want string // in stderr
	}{
		{[]string{"build", "-sites", "5", "-persite", "0"}, "-persite"},
		{[]string{"build", "-sites", "0"}, "-sites"},
		{[]string{"build", "-sites", "5", "-minresults", "0"}, "-minresults"},
		{[]string{"build", "-sites", "5", "-week", "-2"}, "-week"},
		{[]string{"build", "-sites", "5", "-universe", "-1"}, "-universe"},
		{[]string{"build", "-sites", "5", "extra", "-out", out}, `"extra"`},
		{[]string{"weekly", "-weeks", "0"}, "-weeks"},
		{[]string{"weekly", "-sites", "5", "-persite", "-1"}, "-persite"},
		{[]string{"weekly", "-sites", "5", "stray"}, `"stray"`},
		{[]string{"churn", "-a", "a.csv", "-b", "b.csv", "stray"}, `"stray"`},
		{[]string{"build", "-nosuchflag"}, "-nosuchflag"},
		{[]string{"rebuild"}, "usage"},
		{nil, "usage"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: stderr %q does not name %s", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote %d bytes to stdout", tc.args, stdout.Len())
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a rejected build created %s (stat: %v)", out, err)
	}
}

// TestBuildMatchesServedList holds `hisparctl build` to the list
// hisparserve serves at /v1/list/{week}: for the server's default
// shape (seed 42, 24 sites × 8 URLs, 2 minimum results, a 1,500-domain
// universe) and each of its default four weeks, the bytes must match.
func TestBuildMatchesServedList(t *testing.T) {
	h := hisparserve.New(hisparserve.Config{}).Handler()
	for week := 0; week < 4; week++ {
		args := []string{"build", "-seed", "42", "-week", strconv.Itoa(week),
			"-sites", "24", "-persite", "8", "-minresults", "2", "-universe", "1500"}
		var built, stderr bytes.Buffer
		if code := run(args, &built, &stderr); code != 0 {
			t.Fatalf("week %d: exit %d: %s", week, code, stderr.String())
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/list/"+strconv.Itoa(week)+"?wait=1", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("week %d: GET /v1/list: status %d", week, rec.Code)
		}
		if !bytes.Equal(built.Bytes(), rec.Body.Bytes()) {
			t.Errorf("week %d: hisparctl build wrote %d bytes, hisparserve served %d different bytes",
				week, built.Len(), rec.Body.Len())
		}
	}
}
