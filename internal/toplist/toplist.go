// Package toplist models an Alexa-style ranked list of web sites and its
// churn over time.
//
// Real top lists rank sites by an estimate of user traffic, and the
// estimate is noisy: the paper (§3) relies on prior measurements that the
// Alexa Top 5K changes about 10% per day and the Top 100K about 41% per
// week, and shows that Hispar's top level inherits about 20% weekly churn
// from the Alexa Top 5K. This package reproduces those dynamics with a
// universe of domains whose latent log-popularity follows a heteroskedastic
// random walk; a ranked snapshot at any virtual day is a top list.
package toplist

import (
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/detrand"
	"repro/internal/stats"
)

// Entry is one row of a ranked top list.
type Entry struct {
	Rank   int // 1-based
	Domain string
}

// Config parameterizes the universe.
type Config struct {
	Seed int64
	// Size is the number of domains in the universe. It must exceed the
	// largest list you plan to take a snapshot of. Default 150_000.
	Size int
}

func (c Config) withDefaults() Config {
	if c.Size <= 0 {
		c.Size = 150_000
	}
	return c
}

// Each domain's log-popularity is anchor + deviation: the deviation is a
// mean-reverting daily noise term (sites bounce in and out of a list and
// come back — why the Alexa top 5K changes ~10% per day yet only ~20%
// per week), while the anchor itself drifts slowly, faster in the long
// tail (why the top 100K changes ~41% per week). A domain's position
// in the universe, frac, runs from 0 at the top to 1 at the bottom.
const (
	// baseVolatility is the daily noise s.d. for the most stable sites.
	baseVolatility = 0.07
	// tailVolatility is the extra daily noise at the bottom of the
	// universe, scaled by frac (deep ranks are estimated from sparse
	// samples and are extremely noisy).
	tailVolatility = 1.7
	// reversion is the daily mean-reversion rate of the noise term.
	reversion = 0.45
	// anchorDrift is the daily s.d. of the slow anchor walk at the
	// bottom of the universe, over a 0.045/day floor; it scales as
	// frac^1.2, so it vanishes toward the top.
	anchorDrift = 0.25
)

// Universe is a population of domains with evolving popularity.
// Create with NewUniverse; not safe for concurrent use.
type Universe struct {
	rng     *rand.Rand
	domains []domain
}

type domain struct {
	name      string
	anchor    float64 // slow-moving intrinsic popularity
	dev       float64 // mean-reverting daily deviation
	vol       float64 // daily sd of the deviation noise
	anchorVol float64 // daily sd of the anchor walk
}

func (d *domain) logpop() float64 { return d.anchor + d.dev }

// NewUniverse creates a universe at day 0. Initial popularity is Zipfian
// with multiplicative noise, so initial rank roughly matches creation
// order.
func NewUniverse(cfg Config) *Universe {
	cfg = cfg.withDefaults()
	u := &Universe{
		rng:     detrand.New(cfg.Seed),
		domains: make([]domain, cfg.Size),
	}
	for i := range u.domains {
		frac := float64(i) / float64(cfg.Size)
		vol := baseVolatility + tailVolatility*frac
		// Heterogeneous per-site volatility: some sites are bursty.
		vol *= math.Exp(u.rng.NormFloat64() * 0.5)
		u.domains[i] = domain{
			name:      DomainName(cfg.Seed, i),
			anchor:    -math.Log(float64(i)+1) + u.rng.NormFloat64()*0.05,
			vol:       vol,
			anchorVol: 0.045 + anchorDrift*math.Pow(frac, 1.2),
		}
	}
	return u
}

// Step advances the universe by days days of popularity drift.
func (u *Universe) Step(days int) {
	theta := reversion // a variable, so 1-theta is a float64 subtraction
	for d := 0; d < days; d++ {
		for i := range u.domains {
			dom := &u.domains[i]
			dom.dev = dom.dev*(1-theta) + u.rng.NormFloat64()*dom.vol
			// Traffic-estimation noise can bury a site but can only
			// inflate it so far: a tail site never spuriously reaches the
			// very top of the list.
			if dom.dev > 1.2 {
				dom.dev = 1.2
			} else if dom.dev < -2.5 {
				dom.dev = -2.5
			}
			dom.anchor += u.rng.NormFloat64() * dom.anchorVol
		}
	}
}

// Top returns the current top-k list, rank 1 first: by descending
// log-popularity, ties by ascending domain name. Each domain's
// log-popularity is read once into a flat key, and only the top k keys
// are sorted.
func (u *Universe) Top(k int) []Entry {
	keys := make([]rankKey, len(u.domains))
	for i := range u.domains {
		keys[i] = rankKey{u.domains[i].logpop(), i}
	}
	top := stats.TopK(keys, k, func(a, b rankKey) int {
		if a.logpop != b.logpop {
			if a.logpop > b.logpop {
				return -1
			}
			return 1
		}
		return strings.Compare(u.domains[a.idx].name, u.domains[b.idx].name)
	})
	out := make([]Entry, len(top))
	for r, key := range top {
		out[r] = Entry{Rank: r + 1, Domain: u.domains[key.idx].name}
	}
	return out
}

// rankKey is one domain's ranking key in Top.
type rankKey struct {
	logpop float64
	idx    int
}

// Churn computes the fraction of domains present in prev but absent from
// next. Both lists are treated as sets; ranks are ignored. It returns 0
// for an empty prev.
func Churn(prev, next []Entry) float64 {
	if len(prev) == 0 {
		return 0
	}
	in := make(map[string]bool, len(next))
	for _, e := range next {
		in[e.Domain] = true
	}
	gone := 0
	for _, e := range prev {
		if !in[e.Domain] {
			gone++
		}
	}
	return float64(gone) / float64(len(prev))
}

// Word pools for synthetic domain names. Kept deliberately generic; no
// resemblance to real registered domains is intended.
var (
	nameAdjectives = []string{
		"alpha", "bright", "civic", "daily", "eager", "fleet", "global", "happy",
		"iron", "jade", "keen", "lunar", "mega", "nova", "open", "prime",
		"quick", "rapid", "solar", "true", "ultra", "vivid", "wide", "xen",
		"young", "zesty", "amber", "bold", "clear", "deep", "east", "fresh",
		"grand", "high", "inner", "joint", "kind", "local", "main", "north",
	}
	nameNouns = []string{
		"news", "shop", "press", "media", "cart", "forum", "wiki", "blog",
		"games", "tech", "bank", "travel", "video", "music", "sport", "mail",
		"search", "social", "photo", "cloud", "market", "store", "times",
		"journal", "daily", "post", "world", "life", "hub", "zone", "spot",
		"base", "port", "link", "net", "page", "site", "web", "data", "stream",
	}
	nameTLDs = []string{
		"com", "com", "com", "com", "org", "net", "io", "co",
		"co.uk", "de", "fr", "co.jp", "com.br", "co.in", "ru", "info",
	}
)

// DomainName returns the deterministic synthetic domain name for index i
// in a universe created with the given seed.
func DomainName(seed int64, i int) string {
	// Mix the index so adjacent ranks do not share prefixes.
	h := uint64(i)*0x9e3779b97f4a7c15 + uint64(seed)
	adj := nameAdjectives[h%uint64(len(nameAdjectives))]
	noun := nameNouns[(h>>8)%uint64(len(nameNouns))]
	tld := nameTLDs[(h>>16)%uint64(len(nameTLDs))]
	// Concatenation, not Sprintf: DomainName runs for every universe
	// entry on each snapshot rebuild and the boxed int was hot.
	return adj + noun + strconv.Itoa(i) + "." + tld
}
