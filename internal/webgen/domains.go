package webgen

import (
	"math/rand"
	"strconv"

	"repro/internal/simnet"
)

// Category is a site's Alexa-style top-level category. The World category
// groups sites that are popular internationally but not in the US; the
// paper shows (Fig 10c) that their landing pages are generally *slower*
// than their internal pages when measured from a US vantage point.
type Category string

// Site categories.
const (
	CatNews          Category = "News"
	CatShopping      Category = "Shopping"
	CatSocial        Category = "Social"
	CatTech          Category = "Tech"
	CatReference     Category = "Reference"
	CatEntertainment Category = "Entertainment"
	CatBusiness      Category = "Business"
	CatSports        Category = "Sports"
	CatWorld         Category = "World"
)

// categoryFor draws a category for a site given its rank. The World
// category concentrates in the rank-400..600 band, which produces the
// paper's rank-localized PLT trend reversal (Fig 9a) mechanically: World
// sites are served far from the US vantage and their objects are rarely
// warm in nearby CDN edges.
func categoryFor(rng *rand.Rand, rank int) Category {
	worldP := 0.06
	if rank >= 400 && rank < 600 {
		worldP = 0.42
	} else if rank >= 300 && rank < 700 {
		worldP = 0.18
	}
	if rng.Float64() < worldP {
		return CatWorld
	}
	others := []Category{CatNews, CatShopping, CatSocial, CatTech, CatReference,
		CatEntertainment, CatBusiness, CatSports}
	weights := []float64{0.20, 0.17, 0.10, 0.14, 0.12, 0.12, 0.09, 0.06}
	x := rng.Float64()
	acc := 0.0
	total := 0.0
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		acc += w / total
		if x < acc {
			return others[i]
		}
	}
	return others[len(others)-1]
}

// originLoc returns the site's origin server location. World sites live
// far from the US vantage point.
func originLoc(rng *rand.Rand, cat Category) simnet.Loc {
	if cat == CatWorld {
		locs := []simnet.Loc{simnet.LocAsia, simnet.LocEurope, simnet.LocSouthAmerica, simnet.LocOceania}
		return locs[rng.Intn(len(locs))]
	}
	x := rng.Float64()
	switch {
	case x < 0.55:
		return simnet.LocUSEast
	case x < 0.85:
		return simnet.LocUSWest
	case x < 0.95:
		return simnet.LocEurope
	default:
		return simnet.LocAsia
	}
}

// ThirdParty is an external service domain that pages embed content from.
type ThirdParty struct {
	Domain  string
	Kind    string // "ads", "analytics", "social", "fonts", "jslib", "video", "widget", "misc"
	Tracker bool   // matched by ad-blocking filter lists
}

var (
	trackerFirst = []string{"ad", "ads", "track", "trk", "pixel", "beacon",
		"metric", "stat", "tag", "sync", "bid", "dsp", "ssp", "retarget",
		"audience", "click", "impression", "visit", "prof", "target"}
	trackerSecond = []string{"serve", "hub", "grid", "flow", "press", "works",
		"nexus", "link", "path", "zone", "layer", "cast"}
	benignFirst = []string{"static", "assets", "fonts", "lib", "api", "media",
		"embed", "widget", "player", "img", "script", "content", "share", "social"}
	benignSecond = []string{"host", "box", "store", "depot", "stack", "base",
		"dock", "well", "yard", "farm"}
	tpTLDs = []string{"com", "net", "io", "co"}
)

// ThirdPartyDirectory generates the deterministic global pool of
// third-party domains for a web seeded with seed: nTrackers ad/tracking
// domains (which the synthetic Easylist covers) and nBenign benign ones.
func ThirdPartyDirectory(seed int64, nTrackers, nBenign int) []ThirdParty {
	rng := rngForKey(seed, "third-parties")
	out := make([]ThirdParty, 0, nTrackers+nBenign)
	seen := make(map[string]bool)
	adKinds := []string{"ads", "analytics"}
	for len(out) < nTrackers {
		// Concatenation instead of Sprintf: this runs per generated
		// domain on the snapshot-rebuild path, and boxing the int arm
		// was a recurring allocation. Operand order preserves the RNG
		// draw sequence.
		d := trackerFirst[rng.Intn(len(trackerFirst))] +
			trackerSecond[rng.Intn(len(trackerSecond))] +
			strconv.Itoa(rng.Intn(90)+10) + "." +
			tpTLDs[rng.Intn(len(tpTLDs))]
		if seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, ThirdParty{Domain: d, Kind: adKinds[rng.Intn(len(adKinds))], Tracker: true})
	}
	benignKinds := []string{"social", "fonts", "jslib", "video", "widget", "misc"}
	for len(out) < nTrackers+nBenign {
		d := benignFirst[rng.Intn(len(benignFirst))] +
			benignSecond[rng.Intn(len(benignSecond))] +
			strconv.Itoa(rng.Intn(900)+100) + "." +
			tpTLDs[rng.Intn(len(tpTLDs))]
		if seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, ThirdParty{Domain: d, Kind: benignKinds[rng.Intn(len(benignKinds))], Tracker: false})
	}
	return out
}

// EasylistFor renders Easylist-syntax filter rules covering the tracker
// domains in the directory, plus a few generic path rules — the synthetic
// analogue of downloading Easylist (§6.3).
func EasylistFor(dir []ThirdParty) []string {
	rules := []string{
		"! Synthetic Easylist for the simulated web",
		"/ads/*",
		"/pixel?",
		"/beacon?",
		"/track?",
		"&utm_tracker=",
	}
	for _, tp := range dir {
		if tp.Tracker {
			rules = append(rules, "||"+tp.Domain+"^")
		}
	}
	return rules
}

// slugWords feed page paths and titles.
var slugWords = []string{
	"election", "market", "climate", "review", "launch", "season", "update",
	"guide", "report", "analysis", "profile", "history", "science", "travel",
	"health", "economy", "culture", "design", "energy", "finance", "future",
	"gadget", "garden", "justice", "kitchen", "language", "medicine", "nature",
	"opinion", "policy", "privacy", "recipe", "startup", "storage", "stream",
	"summit", "theater", "traffic", "weather", "wildlife", "workout", "archive",
}

// pathFor returns a category-flavoured internal page path for page index
// idx, stable across weeks.
func pathFor(rng *rand.Rand, cat Category, idx int) string {
	// Built by concatenation rather than Sprintf: pathFor runs once per
	// page per build and the format-verb boxing showed up on the
	// streaming hot path. Every branch is byte-for-byte what the old
	// format string produced, with RNG draws in the same order.
	w1 := slugWords[rng.Intn(len(slugWords))]
	w2 := slugWords[rng.Intn(len(slugWords))]
	switch cat {
	case CatNews, CatSports:
		return "/" + strconv.Itoa(2019+rng.Intn(2)) + "/" + pad2(1+rng.Intn(12)) +
			"/" + w1 + "-" + w2 + "-" + strconv.Itoa(idx)
	case CatShopping:
		return "/product/" + strconv.Itoa(10000+idx) + "/" + w1 + "-" + w2
	case CatReference:
		return "/wiki/" + w1 + "_" + w2 + "_" + strconv.Itoa(idx)
	case CatSocial:
		return "/user" + strconv.Itoa(rng.Intn(5000)) + "/post/" + strconv.Itoa(100000+idx)
	case CatEntertainment:
		return "/watch/" + w1 + "-" + w2 + "-" + strconv.Itoa(idx)
	default:
		return "/" + w1 + "/" + w2 + "-" + strconv.Itoa(idx)
	}
}

// pad2 renders n like the %02d verb: zero-padded to two digits.
func pad2(n int) string {
	if n >= 0 && n < 10 {
		return "0" + strconv.Itoa(n)
	}
	return strconv.Itoa(n)
}
