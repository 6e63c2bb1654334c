// Package trace is a zero-dependency, deterministic span tracer for the
// study pipeline. Spans carry *virtual* timestamps from the per-site
// vclock timelines, and span IDs are derived purely from stable
// coordinates — (site rank, fetch, attempt, exchange index) — so the
// exported trace is byte-identical at any worker count, matching the
// pipeline's determinism invariant. Wall-clock time never enters a span
// on the study path; the only wall-clocked spans are hisparserve's
// request spans, which are operational telemetry built from the bounded
// Ring and never part of a study artifact.
//
// The model is deliberately small: complete spans only (Chrome "X"
// phase events), string-valued attributes, and a three-level object
// graph — per-site Recorders filled concurrently without locks, merged
// into the shared Tracer by core's fold goroutine in site-rank order.
package trace

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID is a stable 64-bit span identifier derived from the span's
// logical coordinates, never from allocation order or time.
type SpanID uint64

// DeriveID hashes the given coordinate parts (FNV-1a, unit-separator
// joined) into a SpanID. Equal parts always yield the same ID, on any
// machine, in any run.
func DeriveID(parts ...string) SpanID {
	h := fnv.New64a()
	for i, p := range parts {
		if i > 0 {
			h.Write(idSep)
		}
		h.Write([]byte(p))
	}
	return SpanID(h.Sum64())
}

var idSep = []byte{0x1f}

// SiteSpanID is the ID of the root span for one site, keyed by its
// Hispar rank. core creates the span; browser parents under it.
func SiteSpanID(rank int) SpanID {
	return DeriveID("site", fmt.Sprintf("%d", rank))
}

// AttemptKey is the attempt coordinate of a load's span IDs: the bare
// attempt number for a cold load, and the attempt number plus the
// revisit offset for a warm repeat view, so that the cold and warm legs
// of one page never share an ID while cold IDs stay what they were.
func AttemptKey(attempt int, revisit time.Duration) string {
	a := strconv.Itoa(attempt)
	if revisit == 0 {
		return a
	}
	return a + "@" + revisit.String()
}

// Attr is one key/value annotation on a span. Values are strings so the
// Chrome exporter stays trivially deterministic; callers format numbers
// themselves (strconv, never %v on floats they did not round).
type Attr struct {
	Key, Val string
}

// Span is one completed interval on a timeline. Start is virtual time;
// Dur is its virtual duration. TID selects the Chrome trace row (core
// uses site-index+1).
type Span struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Cat    string
	TID    int64
	Start  time.Time
	Dur    time.Duration
	Attrs  []Attr
}

// Detail selects how deep the instrumentation records. Each level
// includes the ones above it.
type Detail int

const (
	// DetailSites records per-site spans only.
	DetailSites Detail = iota
	// DetailLoads adds one span per page-load attempt and retry backoff.
	DetailLoads
	// DetailFetches adds one span per HTTP exchange (HAR entry).
	DetailFetches
	// DetailPhases adds DNS/connect/TLS/send/wait/receive sub-spans
	// inside every exchange.
	DetailPhases
)

// ParseDetail maps the -trace-detail flag spelling to a Detail level.
func ParseDetail(s string) (Detail, error) {
	switch s {
	case "sites":
		return DetailSites, nil
	case "loads":
		return DetailLoads, nil
	case "fetches":
		return DetailFetches, nil
	case "phases":
		return DetailPhases, nil
	}
	return 0, fmt.Errorf("trace: unknown detail %q (want sites|loads|fetches|phases)", s)
}

func (d Detail) String() string {
	switch d {
	case DetailSites:
		return "sites"
	case DetailLoads:
		return "loads"
	case DetailFetches:
		return "fetches"
	case DetailPhases:
		return "phases"
	}
	return fmt.Sprintf("detail(%d)", int(d))
}

// Recorder collects the spans of one site (one worker's current job).
// It is not safe for concurrent use and never needs to be: exactly one
// worker owns it until the fold merges it. A nil Recorder is a valid
// no-op sink, so un-traced runs pay only nil checks.
type Recorder struct {
	detail Detail
	tid    int64
	site   int
	parent SpanID
	base   time.Time
	spans  []Span
}

// Detail reports the recording depth (DetailSites for a nil Recorder).
func (r *Recorder) Detail() Detail {
	if r == nil {
		return DetailSites
	}
	return r.detail
}

// Site returns the site rank this recorder is scoped to.
func (r *Recorder) Site() int {
	if r == nil {
		return 0
	}
	return r.site
}

// SetParent sets the span ID new spans should default-parent under.
func (r *Recorder) SetParent(id SpanID) {
	if r != nil {
		r.parent = id
	}
}

// Parent returns the current default parent span ID.
func (r *Recorder) Parent() SpanID {
	if r == nil {
		return 0
	}
	return r.parent
}

// SetBase anchors the recorder's timeline: instrumentation that only
// knows offsets (browser HAR entries are relative to navStart) adds
// them to Base. core sets it to the site clock's virtual now before
// each load attempt.
func (r *Recorder) SetBase(t time.Time) {
	if r != nil {
		r.base = t
	}
}

// Base returns the timeline anchor set by SetBase.
func (r *Recorder) Base() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.base
}

// Record appends a span, stamping the recorder's TID.
func (r *Recorder) Record(s Span) {
	if r == nil {
		return
	}
	s.TID = r.tid
	r.spans = append(r.spans, s)
}

// Len reports how many spans have been recorded.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// Tracer owns the merged span stream of one run. Merge order is the
// caller's responsibility: core's fold merges site recorders in rank
// order, which is what makes the export byte-identical at any worker
// count.
type Tracer struct {
	mu     sync.Mutex
	detail Detail
	spans  []Span
}

// New returns a Tracer recording at the given detail level.
func New(detail Detail) *Tracer {
	return &Tracer{detail: detail}
}

// Recorder hands out a per-site recorder, or nil when the tracer itself
// is nil (tracing disabled).
func (t *Tracer) Recorder(tid int64, site int) *Recorder {
	if t == nil {
		return nil
	}
	return &Recorder{detail: t.detail, tid: tid, site: site}
}

// Merge appends a recorder's spans to the tracer. Safe for a nil tracer
// or nil recorder.
func (t *Tracer) Merge(r *Recorder) {
	if t == nil || r == nil || len(r.spans) == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, r.spans...)
	t.mu.Unlock()
}

// Len reports the number of merged spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans returns a copy of the merged span stream in merge order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Ring is a bounded, concurrency-safe buffer of the newest n records
// a long-running server keeps for live diagnostics. Records are kept in
// whatever compact form the server chooses, and spans are built from
// them only when the ring is read: hisparserve keeps one record per
// request and serves them as spans at /debug/tracez.
//
// Each record takes the next sequence number from an atomic counter and
// lands in its own slot, under that slot's lock, so concurrent writers
// contend only when they lap the whole ring. Concurrent writers take
// neighbouring sequence numbers, so each slot is padded: the bytes two
// neighbouring slots write never share a cache line.
type Ring[T any] struct {
	slots []ringSlot[T]
	total atomic.Uint64
}

type ringSlot[T any] struct {
	mu  sync.Mutex
	seq uint64 // 0 while empty
	val T
	_   [cacheLine]byte
}

// cacheLine is the span of memory a core writes back as one unit.
const cacheLine = 64

// Entry is one retained record and its sequence number.
type Entry[T any] struct {
	Seq uint64
	Val T
}

// NewRing returns a ring holding at most n records (n < 1 is clamped
// to 1).
func NewRing[T any](n int) *Ring[T] {
	if n < 1 {
		n = 1
	}
	return &Ring[T]{slots: make([]ringSlot[T], n)}
}

// Record stores v, evicting the oldest record when full, and returns
// its sequence number (records ever taken, 1-based). Safe for a nil
// ring, which reports 0.
func (r *Ring[T]) Record(v T) uint64 {
	if r == nil {
		return 0
	}
	seq := r.total.Add(1)
	sl := &r.slots[(seq-1)%uint64(len(r.slots))]
	sl.mu.Lock()
	if seq > sl.seq { // a writer that lapped this one already stored a newer record
		sl.seq, sl.val = seq, v
	}
	sl.mu.Unlock()
	return seq
}

// Total reports how many records were ever taken (including evicted).
func (r *Ring[T]) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total.Load()
}

// Snapshot returns the retained records, oldest first.
func (r *Ring[T]) Snapshot() []Entry[T] {
	if r == nil {
		return nil
	}
	out := make([]Entry[T], 0, len(r.slots))
	for i := range r.slots {
		sl := &r.slots[i]
		sl.mu.Lock()
		if sl.seq != 0 {
			out = append(out, Entry[T]{Seq: sl.seq, Val: sl.val})
		}
		sl.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
