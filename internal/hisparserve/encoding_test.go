package hisparserve

import "testing"

// TestGzipNegotiation holds the payload's representation choice to the
// request's Accept-Encoding weights: gzip refused with q=0, by name or
// through "*", gets the identity body, and a coding that merely
// contains the letters "gzip" is not gzip.
func TestGzipNegotiation(t *testing.T) {
	_, ts := startTestServer(t, testConfig())
	url := ts.URL + "/v1/list/0"
	if resp, body := do(t, "GET", url+"?wait=1", nil); resp.StatusCode != 200 {
		t.Fatalf("warm: status %d: %.200s", resp.StatusCode, body)
	}
	for _, c := range []struct {
		accept string
		gzip   bool
	}{
		{"gzip", true},
		{"GZIP", true},
		{"*", true},
		{"gzip;q=0.5", true},
		{"identity", false},
		{"gzip;q=0", false},
		{"identity, gzip;q=0", false},
		{"*;q=0", false},
		{"x-gzip-not", false},
	} {
		resp, _ := do(t, "GET", url, map[string]string{"Accept-Encoding": c.accept})
		got := resp.Header.Get("Content-Encoding") == "gzip"
		if resp.StatusCode != 200 || got != c.gzip {
			t.Errorf("Accept-Encoding %q: status %d, Content-Encoding %q, want gzip = %v",
				c.accept, resp.StatusCode, resp.Header.Get("Content-Encoding"), c.gzip)
		}
		if v := resp.Header.Get("Vary"); v != "Accept-Encoding" {
			t.Errorf("Accept-Encoding %q: Vary %q", c.accept, v)
		}
	}
}
