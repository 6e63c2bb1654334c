package core

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"repro/internal/hispar"
	"repro/internal/runstats"
	"repro/internal/stats"
	"repro/internal/trace"
)

// This file is the cold study's fold over the shared engine (engine.go):
// HAR → metrics → aggregates with constant memory. The engine retires
// SiteResults in site-rank order; the fold passes each through the
// configured sinks (streaming CSV, collectors) and into rank-sharded
// accumulators of mergeable quantile sketches, and then drops it, which
// is what lets papereval-style studies scale from H1K toward H100K
// without holding the result set.
//
// Determinism: because the fold runs in site-rank order, every
// accumulated float (ratio log-sums, sketch Sums) sees the same
// addition order at any worker count, so streamed aggregates and CSV
// bytes are bit-identical across parallelism. Shards close in rank
// order and merge into the study-wide aggregate immediately, so at most
// one shard accumulator is live at a time.

// Metric enumerates the per-page quantities the streaming aggregator
// tracks as full distributions. Units match the experiment tables:
// durations in seconds, everything else in its natural count.
type Metric int

const (
	MetricBytes Metric = iota
	MetricObjects
	MetricPLT
	MetricSpeedIndex
	MetricOnLoad
	MetricNonCacheable
	MetricDomains
	numMetrics
)

var metricNames = [numMetrics]string{
	"bytes", "objects", "plt_s", "speed_index_s", "onload_s", "noncacheable", "domains",
}

func (m Metric) String() string {
	if m < 0 || m >= numMetrics {
		return fmt.Sprintf("metric(%d)", int(m))
	}
	return metricNames[m]
}

// metricOf reads one metric from a page measurement.
func metricOf(p *PageMeasurement, m Metric) float64 {
	switch m {
	case MetricBytes:
		return float64(p.Bytes)
	case MetricObjects:
		return float64(p.Objects)
	case MetricPLT:
		return p.PLT.Seconds()
	case MetricSpeedIndex:
		return p.SpeedIndex.Seconds()
	case MetricOnLoad:
		return p.OnLoad.Seconds()
	case MetricNonCacheable:
		return float64(p.NonCacheable)
	case MetricDomains:
		return float64(p.UniqueDomains)
	default:
		return 0
	}
}

// metricAgg is one metric's streaming state: sketches over the three
// distributions the paper keeps coming back to (landing values,
// internal-page values, per-site landing−internal-median deltas), exact
// delta sign counters, and the exact log-sum behind geometric-mean
// ratios.
type metricAgg struct {
	delta    *stats.Sketch
	landing  *stats.Sketch
	internal *stats.Sketch

	deltaPos, deltaNeg int
	logRatioSum        float64
	ratioN             int
}

// Aggregates is a constant-size accumulator of per-site study results —
// the shard unit of the streaming engine. Fold sites in with
// AccumulateSite; combine shards with Merge. Sketch reads carry the
// sketch's documented relative error; counter and geomean reads are
// exact.
type Aggregates struct {
	// Sites counts folded (surviving) sites.
	Sites int
	m     [numMetrics]metricAgg

	// FewerObjectsButLarger counts sites whose landing page has fewer
	// objects yet more bytes than the internal median (Fig 2b's 5% row).
	FewerObjectsButLarger int
	// UnseenTP sketches the per-site count of third parties contacted
	// only by internal pages (Fig 8b).
	UnseenTP *stats.Sketch
	// HTTPLandings, InsecureInternalSites, and MixedInternalSites count
	// sites for the §6.1 security rows.
	HTTPLandings          int
	InsecureInternalSites int
	MixedInternalSites    int
}

// NewAggregates builds an empty accumulator at the default sketch
// accuracy.
func NewAggregates() *Aggregates {
	a := &Aggregates{UnseenTP: stats.NewDefaultSketch()}
	for i := range a.m {
		a.m[i] = metricAgg{
			delta:    stats.NewDefaultSketch(),
			landing:  stats.NewDefaultSketch(),
			internal: stats.NewDefaultSketch(),
		}
	}
	return a
}

// AccumulateSite folds one surviving site into the accumulator and
// returns the per-metric delta signs (+1, 0, −1), which the engine
// reuses for its exact tail counters. The site result is not retained.
func (a *Aggregates) AccumulateSite(s *SiteResult) [numMetrics]int8 {
	a.Sites++
	var signs [numMetrics]int8
	var deltas [numMetrics]float64
	for m := Metric(0); m < numMetrics; m++ {
		ag := &a.m[m]
		lv := metricOf(&s.Landing, m)
		ag.landing.Insert(lv)
		for i := range s.Internal {
			ag.internal.Insert(metricOf(&s.Internal[i], m))
		}
		imed := s.InternalMedian(func(p *PageMeasurement) float64 { return metricOf(p, m) })
		d := lv - imed
		deltas[m] = d
		ag.delta.Insert(d)
		if d > 0 {
			ag.deltaPos++
			signs[m] = 1
		} else if d < 0 {
			ag.deltaNeg++
			signs[m] = -1
		}
		// Same ratio rule as SiteResult.Ratio + the experiments' ratios
		// helper: undefined (zero-median) and non-positive ratios drop.
		if imed != 0 {
			if r := lv / imed; r > 0 {
				ag.logRatioSum += math.Log(r)
				ag.ratioN++
			}
		}
	}
	if deltas[MetricObjects] < 0 && deltas[MetricBytes] > 0 {
		a.FewerObjectsButLarger++
	}
	a.UnseenTP.Insert(float64(s.UnseenThirdParties()))
	if s.Landing.Scheme == "http" {
		a.HTTPLandings++
	}
	if s.InsecureInternal() > 0 {
		a.InsecureInternalSites++
	}
	if s.MixedInternal() > 0 {
		a.MixedInternalSites++
	}
	return signs
}

// Merge folds other into a. Counter merges are exact and commutative;
// float log-sums add in call order, so merge shards in rank order for
// bit-stable geomeans.
func (a *Aggregates) Merge(other *Aggregates) error {
	if other == nil {
		return nil
	}
	a.Sites += other.Sites
	a.FewerObjectsButLarger += other.FewerObjectsButLarger
	a.HTTPLandings += other.HTTPLandings
	a.InsecureInternalSites += other.InsecureInternalSites
	a.MixedInternalSites += other.MixedInternalSites
	if err := a.UnseenTP.Merge(other.UnseenTP); err != nil {
		return err
	}
	for m := range a.m {
		ag, og := &a.m[m], &other.m[m]
		ag.deltaPos += og.deltaPos
		ag.deltaNeg += og.deltaNeg
		ag.logRatioSum += og.logRatioSum
		ag.ratioN += og.ratioN
		for _, pair := range [][2]*stats.Sketch{
			{ag.delta, og.delta}, {ag.landing, og.landing}, {ag.internal, og.internal},
		} {
			if err := pair[0].Merge(pair[1]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Delta returns the sketch of per-site landing−internal-median deltas.
func (a *Aggregates) Delta(m Metric) *stats.Sketch { return a.m[m].delta }

// Landing returns the sketch of landing-page values.
func (a *Aggregates) Landing(m Metric) *stats.Sketch { return a.m[m].landing }

// Internal returns the sketch of internal-page values.
func (a *Aggregates) Internal(m Metric) *stats.Sketch { return a.m[m].internal }

// FracDeltaPositive returns the exact fraction of sites whose landing
// page exceeds the internal median on m (the paper's headline "65% of
// sites" style numbers).
func (a *Aggregates) FracDeltaPositive(m Metric) float64 {
	if a.Sites == 0 {
		return 0
	}
	return float64(a.m[m].deltaPos) / float64(a.Sites)
}

// FracDeltaNegative is the landing-smaller (or landing-faster, for time
// metrics) counterpart of FracDeltaPositive, equally exact.
func (a *Aggregates) FracDeltaNegative(m Metric) float64 {
	if a.Sites == 0 {
		return 0
	}
	return float64(a.m[m].deltaNeg) / float64(a.Sites)
}

// GeomeanRatio returns the exact geometric mean of per-site
// landing/internal-median ratios of m. When sites fold in rank order it
// matches stats.GeometricMean over the experiments' ratios helper bit
// for bit.
func (a *Aggregates) GeomeanRatio(m Metric) float64 {
	if a.m[m].ratioN == 0 {
		return 0
	}
	return math.Exp(a.m[m].logRatioSum / float64(a.m[m].ratioN))
}

// TailCounters are exact delta-sign counters over a rank slice of the
// list (the paper's Ht30 / Hb100 cuts), cheap enough to keep per tail
// without sketches.
type TailCounters struct {
	N        int
	Pos, Neg [numMetrics]int
}

func (t *TailCounters) accumulate(signs [numMetrics]int8) {
	t.N++
	for m, s := range signs {
		if s > 0 {
			t.Pos[m]++
		} else if s < 0 {
			t.Neg[m]++
		}
	}
}

// FracPositive returns the fraction of the tail's sites with a positive
// delta on m.
func (t *TailCounters) FracPositive(m Metric) float64 {
	if t.N == 0 {
		return 0
	}
	return float64(t.Pos[m]) / float64(t.N)
}

// FracNegative returns the fraction with a negative delta on m.
func (t *TailCounters) FracNegative(m Metric) float64 {
	if t.N == 0 {
		return 0
	}
	return float64(t.Neg[m]) / float64(t.N)
}

// ShardSummary is the footprint a closed rank shard leaves behind: its
// site-index range, survival counts, and two headline medians read from
// the shard's sketches just before they merged into the study-wide
// aggregate. It is the streaming analogue of a rank-binned table row.
type ShardSummary struct {
	Lo, Hi           int // half-open site-index range [Lo, Hi)
	Sites, Failed    int
	MedianLandingPLT float64 // seconds
	MedianDeltaBytes float64
}

// SiteSink consumes sites as the streaming fold retires them.
// ConsumeSite is called exactly once per input site — failed ones
// included (with a zero SiteResult), so sinks can account for every
// input — always from a single goroutine and always in site-index
// order. Flush is called once after the last site.
type SiteSink interface {
	ConsumeSite(res *SiteResult, out *Outcome) error
	Flush() error
}

// StreamConfig shapes one streaming run.
type StreamConfig struct {
	// Sinks receive every site in rank order (e.g. NewCSVSink).
	Sinks []SiteSink
	// ShardSize is the number of consecutive sites per accumulator
	// shard (default 256).
	ShardSize int
	// Window bounds how many sites may be dispatched but not yet folded
	// — the reorder buffer, and therefore the peak number of retained
	// SiteResults (default 4×Workers).
	Window int
	// Trace, when non-nil, receives the run's span stream (study, shard,
	// site, and — at higher detail levels — load/exchange/phase spans).
	// The fold merges per-site recorders in rank order, so the exported
	// trace is byte-identical at any worker count.
	Trace *trace.Tracer
}

// topK and bottomK size the exact tail counters: the paper's Ht30 and
// Hb100 cuts, counted in surviving sites from the head and tail of the
// rank order.
const (
	topK    = 30
	bottomK = 100
)

func (c StreamConfig) withDefaults() StreamConfig {
	if c.ShardSize <= 0 {
		c.ShardSize = 256
	}
	return c
}

// StreamResult is what a streaming run retains: outcomes (small, one
// record per input site), the merged constant-size aggregates, and
// per-shard summaries — never the per-site measurements themselves.
type StreamResult struct {
	List     *hispar.List
	Outcomes []Outcome
	// Agg holds the study-wide aggregates, merged from rank shards.
	Agg *Aggregates
	// Top and Bottom are exact delta-sign counters over the first topK
	// and last bottomK surviving sites.
	Top, Bottom TailCounters
	// Shards summarizes each closed rank shard in order.
	Shards []ShardSummary
	Stats  runstats.Snapshot
	// MaxInFlight is the peak number of completed-but-unfolded sites the
	// reorder window held — the engine's memory high-water mark in site
	// results (always ≤ the configured Window).
	MaxInFlight int
}

// FailedSites returns how many input sites yielded no measurement.
func (r *StreamResult) FailedSites() int { return failedSites(r.Outcomes) }

// streamFold owns all single-goroutine fold state: sinks, the live
// shard, tail counters, and error accumulation. None of it is locked —
// only the fold goroutine (and, after it exits, the caller) touches it.
type streamFold struct {
	st  *Study
	cfg StreamConfig
	res *StreamResult

	shard       *Aggregates
	shardLo     int
	shardFailed int

	okCount    int
	bottomRing [][numMetrics]int8
	bottomNext int

	// rec collects the fold's own spans (shards, study) on tid 0; it is
	// merged after every site recorder so merge order stays rank-derived.
	rec *trace.Recorder

	sinkErr error
}

// retire processes site i in rank order: shard boundary, sinks,
// accumulators, tail counters.
//
//detlint:hotpath -- the cold retire step; the engine calls it through a func value
func (f *streamFold) retire(i int, res *SiteResult, out *Outcome) {
	if i > 0 && i%f.cfg.ShardSize == 0 {
		f.closeShard(i)
	}
	if f.sinkErr == nil {
		for _, s := range f.cfg.Sinks {
			if err := s.ConsumeSite(res, out); err != nil {
				f.sinkErr = fmt.Errorf("core: stream sink: %w", err)
				break
			}
		}
	}
	if !out.OK {
		f.shardFailed++
		return
	}
	signs := f.shard.AccumulateSite(res)
	f.okCount++
	if f.okCount <= topK {
		f.res.Top.accumulate(signs)
	}
	if len(f.bottomRing) < bottomK {
		f.bottomRing = append(f.bottomRing, signs)
	} else {
		f.bottomRing[f.bottomNext] = signs
		f.bottomNext = (f.bottomNext + 1) % bottomK
	}
}

// closeShard summarizes the live shard over [shardLo, hi), merges it
// into the study-wide aggregate, and starts a fresh one.
func (f *streamFold) closeShard(hi int) {
	if hi <= f.shardLo {
		return
	}
	f.res.Shards = append(f.res.Shards, ShardSummary{
		Lo: f.shardLo, Hi: hi,
		Sites:            f.shard.Sites,
		Failed:           f.shardFailed,
		MedianLandingPLT: f.shard.Landing(MetricPLT).Median(),
		MedianDeltaBytes: f.shard.Delta(MetricBytes).Median(),
	})
	// Rank order: shard s merges before any site of shard s+1 folds.
	if err := f.res.Agg.Merge(f.shard); err != nil && f.sinkErr == nil {
		f.sinkErr = err
	}
	if f.rec != nil {
		sum := &f.res.Shards[len(f.res.Shards)-1]
		f.rec.Record(trace.Span{
			ID:   trace.DeriveID("shard", strconv.Itoa(f.shardLo)),
			Name: fmt.Sprintf("shard [%d,%d)", f.shardLo, hi), Cat: "shard",
			Start: f.st.epoch.Add(time.Duration(f.shardLo) * f.st.cfg.SitePacing),
			Dur:   time.Duration(hi-f.shardLo) * f.st.cfg.SitePacing,
			Attrs: []trace.Attr{
				{Key: "sites", Val: strconv.Itoa(sum.Sites)},
				{Key: "failed", Val: strconv.Itoa(sum.Failed)},
				{Key: "median_landing_plt_s", Val: strconv.FormatFloat(sum.MedianLandingPLT, 'g', 6, 64)},
				{Key: "median_delta_bytes", Val: strconv.FormatFloat(sum.MedianDeltaBytes, 'g', 6, 64)},
			},
		})
	}
	f.shard = NewAggregates()
	f.shardLo, f.shardFailed = hi, 0
}

// finish closes the last shard, flushes sinks, and folds the bottom
// ring (the last ≤bottomK surviving sites, oldest slot first).
func (f *streamFold) finish(n, failed int) {
	f.closeShard(n)
	for _, s := range f.cfg.Sinks {
		if err := s.Flush(); err != nil && f.sinkErr == nil {
			f.sinkErr = fmt.Errorf("core: stream sink flush: %w", err)
		}
	}
	for i := 0; i < len(f.bottomRing); i++ {
		f.res.Bottom.accumulate(f.bottomRing[(f.bottomNext+i)%len(f.bottomRing)])
	}
	if f.rec != nil {
		f.rec.Record(trace.Span{
			ID:   trace.DeriveID("study"),
			Name: "study", Cat: "study",
			Start: f.st.epoch,
			Dur:   time.Duration(n) * f.st.cfg.SitePacing,
			Attrs: []trace.Attr{
				{Key: "sites", Val: strconv.Itoa(n)},
				{Key: "failed", Val: strconv.Itoa(failed)},
				{Key: "shards", Val: strconv.Itoa(len(f.res.Shards))},
				{Key: "shard_size", Val: strconv.Itoa(f.cfg.ShardSize)},
			},
		})
		// Fold spans merge last: every site recorder has already merged
		// by the time finish runs, so the stream stays rank-ordered.
		f.cfg.Trace.Merge(f.rec)
	}
}

// RunStream measures every site in the list with the same fault-tolerant,
// scheduling-invariant semantics as Run, but streams results out instead
// of accumulating them: sinks and shard accumulators consume each site in
// rank order and the engine retains at most Window site results at any
// moment. The failure budget works exactly as in Run: every site is
// attempted, and the budget only decides whether an aggregate error is
// reported alongside the (complete) result.
//
//detlint:hotpath -- the streaming study engine; H1M-scale runs live here
func (st *Study) RunStream(list *hispar.List, cfg StreamConfig) (*StreamResult, error) {
	cfg = cfg.withDefaults()
	res := &StreamResult{List: list, Agg: NewAggregates()}
	fold := &streamFold{st: st, cfg: cfg, res: res, shard: NewAggregates(),
		rec: cfg.Trace.Recorder(0, 0)}
	run, err := runSites(st, list, cfg.Window, cfg.Trace, st.measureSiteResilient, fold.retire)
	if run == nil {
		return nil, err
	}
	res.Outcomes, res.MaxInFlight = run.outcomes, run.maxInFlight
	fold.finish(len(list.Sets), run.failed)
	res.Stats = st.stats.Snapshot()
	if fold.sinkErr != nil {
		err = errors.Join(err, fold.sinkErr)
	}
	return res, err
}

// csvSinkFlushEvery is how many sites a CSVSink buffers between flushes
// of the underlying csv writer — batching writes without letting an
// interrupted run hold back more than a window's worth of rows.
const csvSinkFlushEvery = 64

// CSVSink streams the per-page measurement dataset row by row as sites
// retire, producing bytes identical to WriteMeasurementsCSV over the
// same surviving sites — without ever holding more than one site.
type CSVSink struct {
	cw    *csv.Writer
	sites int
}

// NewCSVSink writes the dataset header and returns the sink.
func NewCSVSink(w io.Writer) (*CSVSink, error) {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return nil, err
	}
	return &CSVSink{cw: cw}, nil
}

// ConsumeSite emits the site's rows (landing first, then internals);
// failed sites contribute nothing, as in the in-memory dataset.
func (c *CSVSink) ConsumeSite(res *SiteResult, out *Outcome) error {
	if !out.OK {
		return nil
	}
	if err := emitSiteRows(c.cw, res); err != nil {
		return err
	}
	c.sites++
	if c.sites%csvSinkFlushEvery == 0 {
		c.cw.Flush()
		if err := c.cw.Error(); err != nil {
			return err
		}
	}
	return nil
}

// Flush drains the writer.
func (c *CSVSink) Flush() error {
	c.cw.Flush()
	return c.cw.Error()
}

// collectSink rebuilds the in-memory survivors slice — how Run layers
// on top of RunStream.
type collectSink struct {
	sites []SiteResult
}

func (c *collectSink) ConsumeSite(res *SiteResult, out *Outcome) error {
	if out.OK {
		c.sites = append(c.sites, *res)
	}
	return nil
}

func (c *collectSink) Flush() error { return nil }
