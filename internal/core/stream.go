package core

import (
	"fmt"
	"math"

	"repro/internal/hispar"
	"repro/internal/runstats"
	"repro/internal/stats"
	"repro/internal/trace"
)

// This file is the cold study's entry point on the shared engine
// (engine.go): RunStream hands each site, in rank order, to the
// configured sinks (streaming CSV, collectors) and then drops it, which
// is what lets a study scale from H1K toward H100K without holding the
// result set.
//
// It also holds Aggregates, a constant-size fold of per-site results
// into quantile sketches and exact counters. No study runs it; the
// benchmark's replay times it as the fold layer.

// Metric enumerates the per-page quantities Aggregates tracks as full
// distributions. Units match the experiment tables: durations in
// seconds, everything else in its natural count.
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

// Aggregates is a constant-size accumulator of per-site study results.
// Fold sites in with AccumulateSite, in rank order for bit-stable
// geomeans. Sketch reads carry the sketch's documented relative error;
// counter and geomean reads are exact.
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

// AccumulateSite folds one surviving site into the accumulator. The
// site result is not retained.
func (a *Aggregates) AccumulateSite(s *SiteResult) {
	a.Sites++
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
		} else if d < 0 {
			ag.deltaNeg++
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

// SiteSink is the cold study's sink (see Sink).
type SiteSink = Sink[SiteResult]

// StreamConfig shapes one streaming run.
type StreamConfig struct {
	// Sinks receive every site in rank order (e.g. NewCSVSink).
	Sinks []SiteSink
	// Trace, when non-nil, receives the run's site spans and — at higher
	// detail levels — load/exchange/phase spans. The engine merges
	// per-site recorders in rank order, so the exported trace is
	// byte-identical at any worker count.
	Trace *trace.Tracer
	// Logs, when non-nil, receives fetch 0 of every landing page and
	// every internal page (see LogHook).
	Logs LogHook

	// window bounds how many sites may be dispatched but not yet
	// retired — the reorder buffer, and therefore the peak number of
	// retained SiteResults; 0 means the engine's default, 4×Workers.
	// Only this package's tests set it.
	window int
}

// StreamResult is what a streaming run retains: one small outcome
// record per input site, never the per-site measurements themselves.
type StreamResult struct {
	List     *hispar.List
	Outcomes []Outcome
	Stats    runstats.Snapshot
	// MaxInFlight is the peak number of completed-but-unretired sites
	// the reorder window held — the engine's memory high-water mark in
	// site results (never more than the window, 4×Workers by default).
	MaxInFlight int
}

// FailedSites returns how many input sites yielded no measurement.
func (r *StreamResult) FailedSites() int { return failedSites(r.Outcomes) }

// RunStream measures every site in the list with the same fault-tolerant,
// scheduling-invariant semantics as Run, but streams results out instead
// of accumulating them: sinks consume each site in rank order and the
// engine retains at most a window of site results (4×Workers) at any
// moment. The failure budget works exactly as in Run: every site is
// attempted, and the budget only decides whether an aggregate error is
// reported alongside the (complete) result, which is never nil.
//
//detlint:hotpath -- the streaming study engine; H1M-scale runs live here
func (st *Study) RunStream(list *hispar.List, cfg StreamConfig) (*StreamResult, error) {
	run, err := runSites(st, list, cfg.window, cfg.Trace, cfg.Logs, st.measureSiteResilient, cfg.Sinks)
	return &StreamResult{List: list, Outcomes: run.outcomes, Stats: run.stats.Snapshot(),
		MaxInFlight: run.maxInFlight}, err
}
