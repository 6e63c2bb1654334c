// Package runstats is a lightweight in-process metrics layer for the
// study runner: named counters, gauges, and log-bucketed histograms. The
// paper's harness ran for weeks against tens of thousands of pages and
// survived on exactly this kind of bookkeeping — how many loads ran, how
// many died and why, how long retries stalled each worker — so the repro
// keeps the same discipline. Everything is concurrency-safe, allocation
// is bounded by the number of distinct metric names, and there are no
// dependencies beyond the standard library.
package runstats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// bucketsPerDecade sets histogram resolution: values are bucketed by
// log10 with this many sub-divisions per decade, giving ~26% wide
// buckets — coarse, but plenty for run diagnostics.
const bucketsPerDecade = 4

// Label is one dimension on a labeled series (the L suffix methods).
// Keys follow Prometheus label-name rules after sanitization; values
// are free-form strings.
type Label struct {
	Key, Value string
}

// seriesID is the structured identity behind a canonical series key:
// the metric name plus its labels sorted by key.
type seriesID struct {
	name   string
	labels []Label
}

// Set is a collection of named metrics. The zero value is NOT usable;
// call NewSet.
//
// Counters and histograms are stored once, in cells the key index
// (counters, hists) maps canonical keys to. A resolved Series reaches
// its cell by its slot in cells instead, so a Commit hashes no key.
type Set struct {
	mu       sync.Mutex
	counters map[string]*int64 // canonical key → counter cell
	gauges   map[string]float64
	hists    map[string]*histogram // canonical key → histogram cell
	meta     map[string]seriesID   // canonical key → identity, labeled series only
	cells    []cell                // Series slot → its cell, once a Commit has reached it
}

// cell is a Series' storage in one Set: the counter or the histogram
// the key index holds under the series' key.
type cell struct {
	counter *int64
	hist    *histogram
}

// NewSet returns an empty metric set.
func NewSet() *Set {
	return &Set{
		counters: make(map[string]*int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*histogram),
		meta:     make(map[string]seriesID),
	}
}

// seriesKey canonicalizes (name, labels) into the map key the series
// lives under: `name{k="v",…}` with labels sorted by key and values
// escaped, i.e. the Prometheus series syntax. Unlabeled series keep the
// bare name, so the unlabeled fast paths never pay for this.
func seriesKey(name string, labels []Label) (string, seriesID) {
	if len(labels) == 0 {
		return name, seriesID{name: name}
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String(), seriesID{name: name, labels: ls}
}

// escapeLabelValue applies the Prometheus exposition escapes to a label
// value: backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Inc adds delta to the named counter, creating it at zero first.
func (s *Set) Inc(name string, delta int64) {
	s.mu.Lock()
	*s.counter(name) += delta
	s.mu.Unlock()
}

// SetGauge records the current value of the named gauge.
func (s *Set) SetGauge(name string, v float64) {
	s.mu.Lock()
	s.gauges[name] = v
	s.mu.Unlock()
}

// Observe adds one sample to the named histogram. Non-finite samples are
// dropped; negative ones clamp to zero (durations and counts are the
// only things observed here).
func (s *Set) Observe(name string, v float64) {
	if v, ok := sample(v); ok {
		s.mu.Lock()
		s.histogram(name).observe(v)
		s.mu.Unlock()
	}
}

// Series is one counter or histogram series resolved once: its
// canonical key, identity and slot. A hot path keeps its Series values
// and passes them to Commit, so no update builds or hashes a key. A
// Series is not bound to a Set; the series appears in a Set on its
// first update. Slots are dense and never reused, and every Set that a
// Series reaches keeps a cell for each slot up to its own: resolve a
// series once and keep it, not once per update.
type Series struct {
	key  string
	id   seriesID
	hist bool // a histogram; a counter otherwise
	slot int  // index into every Set's cells
}

// nextSlot is the slot the next resolved Series gets.
var nextSlot atomic.Int64

// NewCounter resolves (name, labels) into a counter series.
func NewCounter(name string, labels ...Label) *Series {
	key, id := seriesKey(name, labels)
	return &Series{key: key, id: id, slot: int(nextSlot.Add(1) - 1)}
}

// NewHistogram resolves (name, labels) into a histogram series.
func NewHistogram(name string, labels ...Label) *Series {
	sr := NewCounter(name, labels...)
	sr.hist = true
	return sr
}

// Update is one change Commit applies: Delta added to a counter
// series, or one Sample observed into a histogram series (with the
// clamping rules of Observe).
type Update struct {
	Series *Series
	Delta  int64
	Sample float64
}

// Commit applies updates under one lock, so they land together: no
// Snapshot sees part of them.
func (s *Set) Commit(updates ...Update) {
	s.mu.Lock()
	for _, u := range updates {
		sr := u.Series
		if !sr.hist {
			*s.cell(sr).counter += u.Delta
		} else if v, ok := sample(u.Sample); ok {
			s.cell(sr).hist.observe(v)
		}
	}
	s.mu.Unlock()
}

// cell returns sr's cell in s, with s.mu held. The first update of sr
// here finds or creates the cell through the key index and keeps it at
// sr's slot; every later one reads the slot.
func (s *Set) cell(sr *Series) cell {
	if sr.slot < len(s.cells) {
		if c := s.cells[sr.slot]; c != (cell{}) {
			return c
		}
	} else {
		s.cells = append(s.cells, make([]cell, sr.slot+1-len(s.cells))...)
	}
	var c cell
	if sr.hist {
		c.hist = s.histogram(sr.key)
	} else {
		c.counter = s.counter(sr.key)
	}
	if len(sr.id.labels) > 0 {
		if _, ok := s.meta[sr.key]; !ok {
			s.meta[sr.key] = sr.id
		}
	}
	s.cells[sr.slot] = c
	return c
}

// counter returns the counter cell under key, creating it at zero, with
// s.mu held.
func (s *Set) counter(key string) *int64 {
	p := s.counters[key]
	if p == nil {
		p = new(int64)
		s.counters[key] = p
	}
	return p
}

// histogram returns the histogram cell under key, creating it empty,
// with s.mu held.
func (s *Set) histogram(key string) *histogram {
	h := s.hists[key]
	if h == nil {
		h = &histogram{min: math.Inf(1), buckets: make(map[int]int64)}
		s.hists[key] = h
	}
	return h
}

// sample applies the rules of Observe to one sample: non-finite ones
// are dropped, negative ones clamp to zero.
func sample(v float64) (float64, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	if v < 0 {
		v = 0
	}
	return v, true
}

// histogram holds log-scale buckets plus exact count/sum/min/max.
type histogram struct {
	count    int64
	sum      float64
	min, max float64
	buckets  map[int]int64 // bucket index → sample count
}

// bucketOf maps a sample to its log-scale bucket index. Zero (and
// sub-1e-9) samples get a dedicated underflow bucket.
func bucketOf(v float64) int {
	if v < 1e-9 {
		return math.MinInt32
	}
	return int(math.Floor(math.Log10(v) * bucketsPerDecade))
}

// bucketUpper is the upper edge of a bucket: samples in bucket i lie in
// (bucketUpper(i-1), bucketUpper(i)].
func bucketUpper(i int) float64 {
	if i == math.MinInt32 {
		return 0
	}
	return math.Pow(10, float64(i+1)/bucketsPerDecade)
}

func (h *histogram) observe(v float64) {
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.buckets[bucketOf(v)]++
}

// bucketsSorted flattens the bucket map into ascending upper-edge
// order, once — every quantile (and the Prometheus exposition) then
// walks the same slice instead of re-sorting indices per call.
func (h *histogram) bucketsSorted() []HistBucket {
	idxs := make([]int, 0, len(h.buckets))
	for i := range h.buckets {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]HistBucket, len(idxs))
	for j, i := range idxs {
		out[j] = HistBucket{Upper: bucketUpper(i), Count: h.buckets[i]}
	}
	return out
}

// quantileFrom estimates the q-quantile (0..1) from pre-sorted buckets,
// clamped to the observed min/max so tiny sample counts do not report
// impossible values.
func quantileFrom(bs []HistBucket, count int64, min, max, q float64) float64 {
	if count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, b := range bs {
		seen += b.Count
		if seen >= rank {
			v := b.Upper
			if v > max {
				v = max
			}
			if v < min {
				v = min
			}
			return v
		}
	}
	return max
}

// HistBucket is one non-empty log-scale bucket: samples ≤ Upper that
// were not counted by a lower bucket (i.e. per-bucket, not cumulative).
type HistBucket struct {
	Upper float64
	Count int64
}

// HistSnapshot is the exported view of one histogram.
type HistSnapshot struct {
	Count         int64
	Sum           float64
	Min, Max      float64
	Mean          float64
	P50, P90, P99 float64
	Buckets       []HistBucket // ascending upper edge, non-empty buckets only
}

// Snapshot is a point-in-time copy of every metric in a Set. It is
// detached: mutating the Set afterwards does not change it. Map keys
// are canonical series keys (`name{k="v"}` for labeled series).
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistSnapshot

	// meta maps labeled series keys back to (name, sorted labels); the
	// Prometheus exposition needs the split, Render does not.
	meta map[string]seriesID
}

// Snapshot copies the current state of every metric.
func (s *Set) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		Counters:   make(map[string]int64, len(s.counters)),
		Gauges:     make(map[string]float64, len(s.gauges)),
		Histograms: make(map[string]HistSnapshot, len(s.hists)),
		meta:       make(map[string]seriesID, len(s.meta)),
	}
	for k, p := range s.counters {
		snap.Counters[k] = *p
	}
	for k, v := range s.gauges {
		snap.Gauges[k] = v
	}
	for k, id := range s.meta {
		snap.meta[k] = id
	}
	for k, h := range s.hists {
		bs := h.bucketsSorted()
		hs := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max, Buckets: bs}
		if h.count > 0 {
			hs.Mean = h.sum / float64(h.count)
			hs.P50 = quantileFrom(bs, h.count, h.min, h.max, 0.50)
			hs.P90 = quantileFrom(bs, h.count, h.min, h.max, 0.90)
			hs.P99 = quantileFrom(bs, h.count, h.min, h.max, 0.99)
		} else {
			hs.Min = 0
		}
		snap.Histograms[k] = hs
	}
	return snap
}

// Counter returns the named counter's current value (0 if absent).
func (s *Set) Counter(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return value(s.counters[name])
}

// CounterL returns the labeled counter series' current value (0 if
// absent).
func (s *Set) CounterL(name string, labels ...Label) int64 {
	key, _ := seriesKey(name, labels)
	s.mu.Lock()
	defer s.mu.Unlock()
	return value(s.counters[key])
}

// value reads a counter cell; an absent one reads 0.
func value(p *int64) int64 {
	if p == nil {
		return 0
	}
	return *p
}

// Render writes the snapshot as an aligned, name-sorted report — the
// shape cmd/webmeasure prints after a run.
func (snap Snapshot) Render(w io.Writer) {
	names := func(n int) []string { return make([]string, 0, n) }

	if len(snap.Counters) > 0 {
		fmt.Fprintf(w, "counters:\n")
		ks := names(len(snap.Counters))
		for k := range snap.Counters {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		for _, k := range ks {
			fmt.Fprintf(w, "  %-36s %d\n", k, snap.Counters[k])
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Fprintf(w, "gauges:\n")
		ks := names(len(snap.Gauges))
		for k := range snap.Gauges {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		for _, k := range ks {
			// %.6g, not %.3f: gauges hold byte counts and RSS peaks in the
			// gigabytes, which fixed-point mangles into walls of digits.
			fmt.Fprintf(w, "  %-36s %.6g\n", k, snap.Gauges[k])
		}
	}
	if len(snap.Histograms) > 0 {
		fmt.Fprintf(w, "histograms:\n")
		ks := names(len(snap.Histograms))
		for k := range snap.Histograms {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		for _, k := range ks {
			h := snap.Histograms[k]
			fmt.Fprintf(w, "  %-36s n=%d mean=%.3g p50=%.3g p90=%.3g p99=%.3g max=%.3g\n",
				k, h.Count, h.Mean, h.P50, h.P90, h.P99, h.Max)
		}
	}
}

// Render is a convenience that snapshots and renders in one step.
func (s *Set) Render(w io.Writer) { s.Snapshot().Render(w) }
