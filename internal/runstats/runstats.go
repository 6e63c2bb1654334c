// Package runstats is a lightweight in-process metrics layer for the
// study runner: counters, gauges, and log-bucketed histograms. The
// paper's harness ran for weeks against tens of thousands of pages and
// survived on exactly this kind of bookkeeping — how many loads ran, how
// many died and why, how long retries stalled each worker — so the repro
// keeps the same discipline. Everything is concurrency-safe, allocation
// is bounded by the number of distinct series, and there are no
// dependencies beyond the standard library.
//
// Counters and histograms have one way in: a caller resolves each
// series once (NewCounter, NewHistogram) and applies its updates with
// Commit, which lands them together in one of the Set's per-core
// shards, so concurrent Commits neither contend on a lock nor write the
// same cache lines. Gauges hold a last value, not a sum, and SetGauge
// writes them under the Set's lock. Reads (Snapshot, Counter) hold
// every lock at once and add the shards up.
package runstats

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// bucketsPerDecade sets histogram resolution: values are bucketed by
// log10 with this many sub-divisions per decade, giving ~26% wide
// buckets — coarse, but plenty for run diagnostics.
const bucketsPerDecade = 4

// cacheLine is the span of memory a core writes back as one unit. Data
// that different shards write is kept at least this far apart.
const cacheLine = 64

// Label is one dimension on a labeled series (see NewCounter).
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

// Set is a collection of metrics. The zero value is NOT usable; call
// NewSet.
//
// Gauges live in a map under mu. Counters and histograms live in
// shards: each shard keeps a cell per resolved Series, by its slot, so
// a Commit hashes no key. A series' value is the sum of its cells in
// every shard.
type Set struct {
	mu     sync.Mutex
	gauges map[string]float64

	// shards are created on the first Commit, one per P then; a Set that
	// is never committed to keeps none. pick hands a Commit its shard.
	shards    atomic.Pointer[[]shard]
	pick      sync.Pool     // *shard
	nextShard atomic.Uint64 // the shard pick.New hands out next
}

// shard is one lock and the cells of the Commits that took it. The
// padding keeps the lock and cells header of neighbouring shards off
// each other's cache lines; the cells array keeps spare cells past its
// end for the same reason (see grow).
type shard struct {
	mu    sync.Mutex
	cells []shardCell // Series slot → its cell in this shard
	_     [cacheLine]byte
}

// shardCell is a Series' storage in one shard: its counter or its
// histogram, whichever the series is. series is nil until a Commit
// reaches the cell.
type shardCell struct {
	series  *Series
	counter int64
	hist    histogram
}

// spareCells is the fewest cells that span a cache line: the spare
// capacity past a shard's last cell that keeps other data off the lines
// the shard writes.
const spareCells = (cacheLine + unsafe.Sizeof(shardCell{}) - 1) / unsafe.Sizeof(shardCell{})

// NewSet returns an empty metric set.
func NewSet() *Set {
	return &Set{gauges: make(map[string]float64)}
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

// SetGauge records the current value of the named gauge.
func (s *Set) SetGauge(name string, v float64) {
	s.mu.Lock()
	s.gauges[name] = v
	s.mu.Unlock()
}

// Series is one counter or histogram series resolved once: its
// canonical key, identity and slot. A hot path keeps its Series values
// and passes them to Commit, so no update builds or hashes a key. A
// Series is not bound to a Set; the series appears in a Set on its
// first update. Slots are dense and never reused, and every shard that
// a Series reaches keeps a cell for each slot up to its own: resolve a
// series once and keep it, not once per update.
type Series struct {
	key  string
	id   seriesID
	hist bool // a histogram; a counter otherwise
	slot int  // index into every shard's cells
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
// series, or one Sample observed into a histogram series. Non-finite
// samples are dropped; negative ones clamp to zero (durations and
// counts are the only things observed here).
type Update struct {
	Series *Series
	Delta  int64
	Sample float64
}

// Commit applies updates under one lock, so they land together: no
// Snapshot sees part of them. The lock is one shard's, not the Set's:
// Commits from different cores take different shards and contend with
// neither each other nor SetGauge. A Commit creates every series it
// names, a zero Delta included.
func (s *Set) Commit(updates ...Update) {
	sh := s.lockShard()
	for _, u := range updates {
		sr := u.Series
		if !sr.hist {
			sh.cell(sr).counter += u.Delta
		} else if v, ok := sample(u.Sample); ok {
			sh.cell(sr).hist.observe(v)
		}
	}
	sh.mu.Unlock()
	s.pick.Put(sh)
}

// lockShard takes a shard from the pool and locks it, creating the
// Set's shards on its first Commit. A P that puts its shard back gets
// the same one on its next Get; which shard a Commit takes only matters
// for speed. New cannot tell which shards are taken, so the pool may
// hand one shard to two Ps, which then contend.
func (s *Set) lockShard() *shard {
	p := s.shards.Load()
	if p == nil {
		s.mu.Lock()
		if p = s.shards.Load(); p == nil {
			shards := make([]shard, runtime.GOMAXPROCS(0))
			s.pick.New = func() any {
				return &shards[(s.nextShard.Add(1)-1)%uint64(len(shards))]
			}
			p = &shards
			s.shards.Store(p)
		}
		s.mu.Unlock()
	}
	sh := s.pick.Get().(*shard)
	sh.mu.Lock()
	return sh
}

// cell returns sr's cell in sh, with sh.mu held, marking it reached.
func (sh *shard) cell(sr *Series) *shardCell {
	if sr.slot >= len(sh.cells) {
		sh.grow(sr.slot + 1)
	}
	c := &sh.cells[sr.slot]
	if c.series == nil {
		c.series = sr
		if sr.hist {
			c.hist = newHistogram()
		}
	}
	return c
}

// grow makes room for at least n cells: a cell for every Series
// resolved so far, so that a shard grows about once, plus the spares.
func (sh *shard) grow(n int) {
	n = max(n, int(nextSlot.Load()))
	cells := make([]shardCell, n, n+int(spareCells))
	copy(cells, sh.cells)
	sh.cells = cells
}

// lockShards takes every shard's lock, in index order, and returns the
// shards (none before the first Commit). Called with s.mu held.
func (s *Set) lockShards() []shard {
	p := s.shards.Load()
	if p == nil {
		return nil
	}
	for i := range *p {
		(*p)[i].mu.Lock()
	}
	return *p
}

func unlockShards(shards []shard) {
	for i := range shards {
		shards[i].mu.Unlock()
	}
}

// sample applies Update's rules to one sample: non-finite ones are
// dropped, negative ones clamp to zero.
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

func newHistogram() histogram {
	return histogram{min: math.Inf(1), buckets: make(map[int]int64)}
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

// merge adds o's samples into h.
func (h *histogram) merge(o *histogram) {
	h.count += o.count
	h.sum += o.sum
	h.min = math.Min(h.min, o.min)
	h.max = math.Max(h.max, o.max)
	for b, n := range o.buckets {
		h.buckets[b] += n
	}
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

// Snapshot copies the current state of every metric. It holds the
// Set's lock and every shard's at once, so it sees each Commit whole or
// not at all.
func (s *Set) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	shards := s.lockShards()
	defer unlockShards(shards)
	snap := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64, len(s.gauges)),
		Histograms: make(map[string]HistSnapshot),
		meta:       make(map[string]seriesID),
	}
	for k, v := range s.gauges {
		snap.Gauges[k] = v
	}
	hists := make(map[string]*histogram)
	for i := range shards {
		for j := range shards[i].cells {
			c := &shards[i].cells[j]
			sr := c.series
			if sr == nil {
				continue
			}
			if _, ok := snap.meta[sr.key]; !ok && len(sr.id.labels) > 0 {
				snap.meta[sr.key] = sr.id
			}
			if sr.hist {
				m := hists[sr.key]
				if m == nil {
					m = new(histogram)
					*m = newHistogram()
					hists[sr.key] = m
				}
				m.merge(&c.hist)
			} else {
				snap.Counters[sr.key] += c.counter
			}
		}
	}
	for k, h := range hists {
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

// Counter returns the current value of the counter under its canonical
// series key (0 if absent), as Snapshot sums it.
func (s *Set) Counter(key string) int64 {
	return s.Snapshot().Counters[key]
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
