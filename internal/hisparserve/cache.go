package hisparserve

// The options-keyed build cache behind every expensive route. Each cache
// layer is a single-flight group: the first request for a key starts
// exactly one build in a tracked goroutine; concurrent requests for the
// same key either block on that build (wait mode) or are answered
// not-ready immediately while it runs (the golds docServer
// StatusTooEarly idiom). Results are kept for the server's lifetime —
// snapshots and studies are deterministic functions of (seed, options),
// so there is nothing to invalidate.

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// buildState is the lifecycle of one keyed build.
type buildState int

const (
	stateBuilding buildState = iota
	stateReady
	stateFailed
)

func (s buildState) String() string {
	switch s {
	case stateBuilding:
		return "building"
	case stateReady:
		return "ready"
	default:
		return "failed"
	}
}

// flightKey is a build's cache key: comparable, so a lookup builds no
// string, and printable, for the /v1/jobs view and 425 bodies. A key
// holds every option its build reads; the build is a function of it.
type flightKey interface {
	comparable
	String() string
}

// snapshotKey is a week's snapshot build.
type snapshotKey int

func (k snapshotKey) String() string { return "snapshot/" + strconv.Itoa(int(k)) }

// studyKey is a week's measurement study over its top sites.
type studyKey struct{ week, sites int }

func (k studyKey) String() string {
	return "study/" + strconv.Itoa(k.week) + "?sites=" + strconv.Itoa(k.sites)
}

// payloadKind is the route a payload is built for.
type payloadKind uint8

const (
	kindIndex payloadKind = iota
	kindList
	kindSite
	kindChurn
	kindDataset
)

// payloadKey is one cached response: its route and canonicalized
// options.
type payloadKey struct {
	kind payloadKind
	week int    // the week; churn's first week
	n    int    // list: top (0 = all); churn: second week; dataset: sites
	name string // site: the domain; dataset: the site filter ("" = all)
}

func (k payloadKey) String() string {
	w := strconv.Itoa(k.week)
	switch k.kind {
	case kindIndex:
		return "lists"
	case kindList:
		if k.n > 0 {
			return "list/" + w + "?top=" + strconv.Itoa(k.n)
		}
		return "list/" + w
	case kindSite:
		return "site/" + w + "/" + k.name
	case kindChurn:
		return "churn/" + w + "/" + strconv.Itoa(k.n)
	default:
		key := "dataset/" + w + "?sites=" + strconv.Itoa(k.n)
		if k.name != "" {
			key += "&site=" + k.name
		}
		return key
	}
}

// call is one in-flight or completed build. built is the latch its
// waiters block on: Add(1) before the call is published, Done once val
// and err are set. ready reports the same without blocking.
type call[T any] struct {
	built sync.WaitGroup
	ready atomic.Bool
	val   T
	err   error
}

// flight is a keyed single-flight cache. Finding an existing build
// takes no lock: calls is a sync.Map, and a finished build is seen
// through its ready flag. build computes a key's value; track runs it
// in a goroutine the owner can join at shutdown.
type flight[K flightKey, T any] struct {
	calls sync.Map // K → *call[T]
	build func(K) (T, error)
	track func(func())
}

func newFlight[K flightKey, T any](track func(func()), build func(K) (T, error)) *flight[K, T] {
	return &flight[K, T]{build: build, track: track}
}

// do returns the cached value for key, starting its build (exactly once
// per key) if none exists yet. With wait=true it blocks until the build
// completes; otherwise a still-running build reports stateBuilding.
func (f *flight[K, T]) do(key K, wait bool) (T, buildState, error) {
	c := f.lookup(key)
	if !c.ready.Load() {
		if !wait {
			var zero T
			return zero, stateBuilding, nil
		}
		c.built.Wait()
	}
	if c.err != nil {
		var zero T
		return zero, stateFailed, c.err
	}
	return c.val, stateReady, nil
}

// lookup returns key's call, starting its build if there is none.
func (f *flight[K, T]) lookup(key K) *call[T] {
	if c, ok := f.calls.Load(key); ok {
		return c.(*call[T])
	}
	c := new(call[T])
	c.built.Add(1)
	if prev, loaded := f.calls.LoadOrStore(key, c); loaded {
		return prev.(*call[T])
	}
	f.track(func() {
		v, err := f.build(key)
		c.val, c.err = v, err
		c.ready.Store(true) // after the writes above; readers that see it may read them
		c.built.Done()
	})
	return c
}

// buildInfo is the observable state of one keyed build (the /v1/jobs
// view).
type buildInfo struct {
	Key   string `json:"key"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// info snapshots every build, sorted by key for deterministic emission.
// Call states are read lock-free: a call's val/err are safe to read once
// its ready flag is set.
func (f *flight[K, T]) info() []buildInfo {
	out := []buildInfo{} // a JSON array, never null
	f.calls.Range(func(k, v any) bool {
		c := v.(*call[T])
		bi := buildInfo{Key: k.(K).String(), State: stateBuilding.String()}
		if c.ready.Load() {
			bi.State = stateReady.String()
			if c.err != nil {
				bi.State = stateFailed.String()
				bi.Error = c.err.Error()
			}
		}
		out = append(out, bi)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
