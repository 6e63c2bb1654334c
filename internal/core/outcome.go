package core

import (
	"errors"
	"time"

	"repro/internal/browser"
	"repro/internal/runstats"
)

// ErrorClass buckets a site's terminal failure for run metrics and retry
// policy. The classes mirror the browser's typed load errors plus two
// harness-side classes.
type ErrorClass string

const (
	// ClassNone: the site produced a full measurement.
	ClassNone ErrorClass = ""
	// ClassDNS: the root document's host never resolved.
	ClassDNS ErrorClass = "dns"
	// ClassTimeout: the root document request hung until the client
	// timeout.
	ClassTimeout ErrorClass = "timeout"
	// ClassTruncated: the root document transfer died mid-body.
	ClassTruncated ErrorClass = "truncated"
	// ClassConfig: the study asked for a page the web snapshot does not
	// contain (or the browser could not be built) — never retried.
	ClassConfig ErrorClass = "config"
	// ClassOther: anything else.
	ClassOther ErrorClass = "other"
)

// The study's counter and histogram series, resolved once; every
// update of a run's stats is a Commit of them.
var (
	loadsOK        = runstats.NewCounter("loads.ok")
	loadOnLoadMS   = runstats.NewHistogram("load.onload.ms")
	retryBackoffMS = runstats.NewHistogram("retry.backoff.ms")

	warmPairs         = runstats.NewCounter("warm.pairs")
	warmCacheHits     = runstats.NewCounter("warm.cache.hits")
	warmRevalidations = runstats.NewCounter("warm.cache.revalidations")

	siteAttempts  = runstats.NewHistogram("site.attempts")
	sitesTotal    = runstats.NewCounter("sites.total")
	sitesOK       = runstats.NewCounter("sites.ok")
	sitesFailed   = runstats.NewCounter("sites.failed")
	retriesTotal  = runstats.NewCounter("retries.total")
	pagesDropped  = runstats.NewCounter("pages.dropped")
	pagesMeasured = runstats.NewCounter("pages.measured")
)

// loadErrSeries holds the loads.err.<class> counter of every class
// Classify returns for an error.
var loadErrSeries = map[ErrorClass]*runstats.Series{
	ClassDNS:       runstats.NewCounter("loads.err." + string(ClassDNS)),
	ClassTimeout:   runstats.NewCounter("loads.err." + string(ClassTimeout)),
	ClassTruncated: runstats.NewCounter("loads.err." + string(ClassTruncated)),
	ClassConfig:    runstats.NewCounter("loads.err." + string(ClassConfig)),
	ClassOther:     runstats.NewCounter("loads.err." + string(ClassOther)),
}

// Classify maps a load error to its class via the browser's sentinels.
func Classify(err error) ErrorClass {
	switch {
	case err == nil:
		return ClassNone
	case errors.Is(err, errNotInSnapshot):
		return ClassConfig
	case errors.Is(err, browser.ErrDNS):
		return ClassDNS
	case errors.Is(err, browser.ErrTimeout):
		return ClassTimeout
	case errors.Is(err, browser.ErrTruncated):
		return ClassTruncated
	default:
		return ClassOther
	}
}

// Retryable reports whether a failure class is transient: injected
// network and resolver faults are worth another attempt, configuration
// errors are not.
func (c ErrorClass) Retryable() bool {
	switch c {
	case ClassDNS, ClassTimeout, ClassTruncated:
		return true
	default:
		return false
	}
}

// Outcome records how one site's measurement went — kept for every site,
// succeeded or not, so a faulted run still accounts for all of its input
// (the paper's harness logged per-site dispositions the same way).
type Outcome struct {
	Domain string
	Rank   int
	// OK means the site yielded a SiteResult (its landing page survived;
	// individual internal pages may still have been dropped).
	OK bool
	// Attempts counts every page-load attempt made for the site,
	// including retries; Retries counts just the re-attempts.
	Attempts int
	Retries  int
	// FailedPages counts internal pages dropped after exhausting
	// retries. The landing page cannot be dropped — its loss fails the
	// whole site.
	FailedPages int
	// Class and Err describe the terminal failure when !OK.
	Class ErrorClass
	Err   error
	// Elapsed is the virtual time the site consumed: page loads plus
	// retry backoff on the site's virtual clock.
	Elapsed time.Duration
}

// failedSites counts the outcomes that yielded no measurement.
func failedSites(outs []Outcome) int {
	n := 0
	for i := range outs {
		if !outs[i].OK {
			n++
		}
	}
	return n
}
