package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunExitCodes: a missing or unknown subcommand and an unknown flag
// are usage errors (exit 2) that print their usage; -h exits 0.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string // on stderr
	}{
		{nil, 2, "usage: hisparserve"},
		{[]string{"nope"}, 2, "usage: hisparserve"},
		{[]string{"serve", "-nope"}, 2, "flag provided but not defined: -nope"},
		{[]string{"loadgen", "-nope"}, 2, "flag provided but not defined: -nope"},
		{[]string{"smoke", "-nope"}, 2, "flag provided but not defined: -nope"},
		{[]string{"smoke", "-h"}, 0, "-clients"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%q: exit %d, want %d", tc.args, code, tc.code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: stderr %q, want it to contain %q", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed %q on stdout", tc.args, stdout.String())
		}
	}
}

// TestRunSmoke: a small smoke run serves its load without a failure,
// exits 0, and prints the load report and the server's metrics.
func TestRunSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"smoke", "-n", "200", "-clients", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke: exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	for _, want := range []string{"loadgen: 200 requests in", "conditional hit ratio:", "  status 200:"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
	for _, want := range []string{"smoke: server metrics:", "http.requests", "hisparserve: PASS"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
}
