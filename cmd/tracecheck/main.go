// Command tracecheck validates Chrome trace-event JSON files as emitted
// by webmeasure -trace and papereval -trace: the envelope shape, the
// per-event field contract (complete "X" events with non-negative
// microsecond timestamps, a span_id on every event, parents that
// resolve), and — given two files — byte-identity between them. It is
// the CI end of the tracer's determinism contract: `make trace-smoke`
// runs the same study at two worker counts and requires tracecheck to
// accept both files and find them identical.
//
// Usage:
//
//	tracecheck trace.json
//	tracecheck run1.json run2.json   # also require byte-identity
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run checks one or two trace files and returns the exit code: 0 when
// every file is valid (and two files are byte-identical), 1 when a file
// is unreadable, invalid, or differs from the other, 2 on bad usage.
// Every message is a diagnostic, so nothing goes to stdout.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 || len(args) > 2 {
		fmt.Fprintln(stderr, "usage: tracecheck trace.json [other.json]")
		return 2
	}
	var blobs [][]byte
	for _, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			return fail(stderr, err)
		}
		n, err := validate(b)
		if err != nil {
			return fail(stderr, fmt.Errorf("%s: %w", path, err))
		}
		fmt.Fprintf(stderr, "tracecheck: %s: %d events ok\n", path, n)
		blobs = append(blobs, b)
	}
	if len(blobs) == 2 {
		if !bytes.Equal(blobs[0], blobs[1]) {
			return fail(stderr, fmt.Errorf("%s and %s are not byte-identical (%d vs %d bytes): the trace is not deterministic",
				args[0], args[1], len(blobs[0]), len(blobs[1])))
		}
		fmt.Fprintln(stderr, "tracecheck: files are byte-identical")
	}
	return 0
}

// event mirrors the subset of the trace-event format the tracer emits.
type event struct {
	Ph   string          `json:"ph"`
	PID  *int64          `json:"pid"`
	TID  *int64          `json:"tid"`
	TS   *float64        `json:"ts"`
	Dur  *float64        `json:"dur"`
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Args json.RawMessage `json:"args"`
}

// validate checks one trace file and returns its event count.
func validate(b []byte) (int, error) {
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return 0, fmt.Errorf("envelope: %w", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		return 0, fmt.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	ids := make(map[string]bool, len(doc.TraceEvents))
	var parents []struct {
		idx int
		id  string
	}
	for i, raw := range doc.TraceEvents {
		var ev event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return 0, fmt.Errorf("event %d: %w", i, err)
		}
		if ev.Ph != "X" {
			return 0, fmt.Errorf("event %d (%q): ph = %q, want complete event X", i, ev.Name, ev.Ph)
		}
		if ev.PID == nil || ev.TID == nil || ev.TS == nil || ev.Dur == nil {
			return 0, fmt.Errorf("event %d (%q): missing pid/tid/ts/dur", i, ev.Name)
		}
		if *ev.TS < 0 || *ev.Dur < 0 {
			return 0, fmt.Errorf("event %d (%q): negative ts/dur (%v, %v)", i, ev.Name, *ev.TS, *ev.Dur)
		}
		if ev.Name == "" || ev.Cat == "" {
			return 0, fmt.Errorf("event %d: empty name or cat", i)
		}
		var args map[string]string
		if err := json.Unmarshal(ev.Args, &args); err != nil {
			return 0, fmt.Errorf("event %d (%q): args: %w", i, ev.Name, err)
		}
		id := args["span_id"]
		if len(id) != 16 {
			return 0, fmt.Errorf("event %d (%q): span_id %q, want 16 hex digits", i, ev.Name, id)
		}
		ids[id] = true
		if p, ok := args["parent_id"]; ok {
			parents = append(parents, struct {
				idx int
				id  string
			}{i, p})
		}
	}
	for _, p := range parents {
		if !ids[p.id] {
			return 0, fmt.Errorf("event %d: parent_id %q resolves to no span in this file", p.idx, p.id)
		}
	}
	return len(doc.TraceEvents), nil
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "tracecheck: %v\n", err)
	return 1
}
