// Package simnet models transport-level timing: round-trip times between
// the measurement vantage point and server locations, TCP and TLS
// handshake costs, request/response latency, and transfer times with a
// simplified TCP slow-start. The page-load engine composes these into HAR
// timing phases (blocked/dns/connect/ssl/send/wait/receive).
//
// Everything is expressed in virtual time; nothing here sleeps.
package simnet

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/detrand"
)

// Loc is a coarse server location used by the RTT model.
type Loc int

// Locations. The vantage point of the study is the US (the paper fixes
// the search locale and measures from a single US vantage, §3/§A).
const (
	LocUSEast Loc = iota
	LocUSWest
	LocEurope
	LocAsia
	LocSouthAmerica
	LocOceania
	LocEdge // a CDN edge near the vantage point
)

// String returns a short location name.
func (l Loc) String() string {
	switch l {
	case LocUSEast:
		return "us-east"
	case LocUSWest:
		return "us-west"
	case LocEurope:
		return "europe"
	case LocAsia:
		return "asia"
	case LocSouthAmerica:
		return "south-america"
	case LocOceania:
		return "oceania"
	case LocEdge:
		return "edge"
	default:
		return "unknown"
	}
}

// baseRTT is the round-trip time from the US-East vantage point.
var baseRTT = map[Loc]time.Duration{
	LocUSEast:       18 * time.Millisecond,
	LocUSWest:       62 * time.Millisecond,
	LocEurope:       95 * time.Millisecond,
	LocAsia:         190 * time.Millisecond,
	LocSouthAmerica: 135 * time.Millisecond,
	LocOceania:      210 * time.Millisecond,
	LocEdge:         8 * time.Millisecond,
}

// Config parameterizes the network model.
type Config struct {
	Seed int64
	// ConnBandwidth is per-connection application throughput.
	// Default 12 Mbit/s (a share of a typical residential downlink when
	// several connections are active).
	ConnBandwidth float64 // bits per second
	// JitterFrac is the relative standard deviation applied to RTTs.
	JitterFrac float64
	// Faults configures failure injection (see faults.go). The zero value
	// injects nothing and leaves timings byte-identical to a fault-free
	// model.
	Faults FaultConfig
}

func (c Config) withDefaults() Config {
	if c.ConnBandwidth <= 0 {
		c.ConnBandwidth = 12e6
	}
	if c.JitterFrac <= 0 {
		c.JitterFrac = 0.10
	}
	c.Faults = c.Faults.withDefaults()
	return c
}

// mss is the slow-start model's TCP segment size in bytes, and initCwnd
// its initial congestion window in segments (RFC 6928).
const mss, initCwnd = 1460, 10

// Model computes transport timings. Not safe for concurrent use; create
// one per page load (they are cheap) or guard externally.
type Model struct {
	cfg Config
	rng *rand.Rand
	// frng feeds fault draws only; it is nil when fault injection is off
	// so the timing stream above never shifts.
	frng *rand.Rand
}

// New creates a Model.
func New(cfg Config) *Model {
	m := &Model{}
	m.Reset(cfg)
	return m
}

// Reset reseeds the model in place for a new page load. Rand.Seed
// resets a detrand generator to the state detrand.New starts in, so a
// reset model's draw streams are byte-identical to a freshly
// constructed one's — which lets the browser keep one Model per Browser
// instead of paying two ~5 KB generator allocations per load. The fault
// generator is dropped when injection is off, preserving New's
// invariant that the timing stream never shifts.
func (m *Model) Reset(cfg Config) {
	cfg = cfg.withDefaults()
	m.cfg = cfg
	if m.rng == nil {
		m.rng = detrand.New(cfg.Seed ^ 0x51a7)
	} else {
		m.rng.Seed(cfg.Seed ^ 0x51a7)
	}
	switch {
	case !cfg.Faults.Enabled():
		m.frng = nil
	case m.frng == nil:
		m.frng = detrand.New(cfg.Seed ^ 0xfa17)
	default:
		m.frng.Seed(cfg.Seed ^ 0xfa17)
	}
}

// RTT returns a jittered round-trip time to loc from the vantage point.
func (m *Model) RTT(loc Loc) time.Duration {
	base, ok := baseRTT[loc]
	if !ok {
		base = 100 * time.Millisecond
	}
	j := 1 + m.rng.NormFloat64()*m.cfg.JitterFrac
	if j < 0.5 {
		j = 0.5
	}
	return time.Duration(float64(base) * j)
}

// ConnectTime returns the TCP handshake cost for a connection with the
// given RTT: one round trip (SYN, SYN-ACK).
func (m *Model) ConnectTime(rtt time.Duration) time.Duration {
	return rtt + time.Duration(m.rng.NormFloat64()*float64(rtt)*0.05)
}

// TLSTime returns the TLS handshake cost: two round trips for TLS 1.2,
// one for TLS 1.3. The 2020-era web the paper measured was mid-migration;
// the caller decides per-site.
func (m *Model) TLSTime(rtt time.Duration, tls13 bool) time.Duration {
	n := 2.0
	if tls13 {
		n = 1.0
	}
	// Handshake crypto adds a little server/client compute.
	compute := time.Duration(2+m.rng.Intn(4)) * time.Millisecond
	return time.Duration(n*float64(rtt)) + compute
}

// SendTime returns the time to put the request on the wire.
func (m *Model) SendTime() time.Duration {
	return time.Duration(300+m.rng.Intn(700)) * time.Microsecond
}

// WaitTime returns the HAR wait phase: request propagation plus
// time-to-first-byte at the server (think) plus any backhaul fetch the
// server performs before it can answer (e.g. a CDN cache miss).
func (m *Model) WaitTime(rtt, think, backhaul time.Duration) time.Duration {
	w := rtt + think + backhaul
	return w + time.Duration(m.rng.NormFloat64()*float64(w)*0.08)
}

// ReceiveTime returns the body transfer time for size bytes over a
// connection with the given RTT, modelling TCP slow start: early windows
// are RTT-bound, later ones bandwidth-bound.
func (m *Model) ReceiveTime(size int64, rtt time.Duration) time.Duration {
	if size <= 0 {
		return 0
	}
	segments := float64(size) / mss
	cwnd := float64(initCwnd)
	rounds := 0.0
	sent := 0.0
	for sent < segments && rounds < 30 {
		sent += cwnd
		cwnd *= 2
		rounds++
	}
	slowStart := time.Duration(rounds * float64(rtt) * 0.5)
	bandwidth := time.Duration(float64(size*8) / m.cfg.ConnBandwidth * float64(time.Second))
	if bandwidth > slowStart {
		return bandwidth
	}
	return slowStart
}

// OriginThink returns a server processing time for a dynamically
// generated response (e.g. the root HTML): tens of milliseconds with a
// heavy-ish tail.
func (m *Model) OriginThink() time.Duration {
	base := 22 * time.Millisecond
	tail := time.Duration(math.Abs(m.rng.NormFloat64()) * 22 * float64(time.Millisecond))
	return base + tail
}

// StaticThink returns a server processing time for a static asset
// (web-server work plus disk/page-cache variance).
func (m *Model) StaticThink() time.Duration {
	return time.Duration(4+m.rng.Intn(15)) * time.Millisecond
}
