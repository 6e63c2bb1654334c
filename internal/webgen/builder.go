package webgen

import (
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/detrand"
)

// Builder builds page models into storage it owns and reuses: the
// objects of a model are cut from one slab, its hint and link lists and
// the build's temporaries are slices kept between builds, and the
// generators are re-seeded rather than rebuilt. A model Build returns
// stays valid until the builder's next Build, which overwrites it in
// place. The strings of a model (URLs, hosts, validators) are immutable
// and stay valid for good.
//
// Reuse never changes a model: every draw comes from a generator
// re-seeded with Seed, which detrand keeps stream-identical to a fresh
// one, and every scratch slice is emptied before it is read. A recycled
// build is reflect.DeepEqual to Page.Build's.
//
// The zero Builder is ready to use. A Builder is not safe for
// concurrent use.
type Builder struct {
	m     PageModel
	p     *Page
	rng   *rand.Rand // the page's "page-model" stream
	aux   *rand.Rand // the page's "path" and the site's "trackers" streams
	objs  []Object   // the slab m.Objects points into
	hints []Hint     // the storage of m.Hints
	strs  strArena

	// Per-build scratch; each user empties its slice before use.
	trackers    []string
	tpDomains   []string
	eligible    []*Object
	containers  [maxObjectDepth + 1][]int
	order       []int
	cands       []int
	buckets     [4][]*Object
	weights     []float64
	perm        []int
	origins     []string
	originSet   map[string]bool
	preloadable []int
	pick        distinct
}

// maxKeptObjects bounds the object slab a builder carries from one
// site to the next: room for a typical page. A site with bigger pages
// grows the slab for its own builds only.
const maxKeptObjects = 256

// maxObjectDepth is the deepest dependency level assignDepths targets.
const maxObjectDepth = 5

// Build generates the page's object tree. Deterministic per page: the
// same page always yields the same model, regardless of snapshot week.
// The model is a fresh Builder's, copied out so that a caller keeping it
// keeps its objects and strings but not the builder's scratch; it stays
// valid for good.
func (p *Page) Build() *PageModel {
	var b Builder
	m := *b.Build(p)
	return &m
}

// reseed points *g at a generator seeded with seed, building one on
// first use.
func reseed(g **rand.Rand, seed int64) *rand.Rand {
	if *g == nil {
		*g = detrand.New(seed)
	} else {
		(*g).Seed(seed)
	}
	return *g
}

// object returns a zeroed object from the slab, appended to the model.
// When the slab is full a bigger one replaces it; objects already handed
// out stay where they are.
func (b *Builder) object(o Object) *Object {
	if len(b.objs) == cap(b.objs) {
		b.objs = make([]Object, 0, 2*cap(b.objs)+16)
	}
	b.objs = append(b.objs, o)
	p := &b.objs[len(b.objs)-1]
	b.m.Objects = append(b.m.Objects, p)
	return p
}

// strArena hands out a build's strings as substrings of one
// strings.Builder's buffer. Bytes once written are never rewritten: a
// chunk that lacks room is replaced, not reused, so every string cut
// from it stays valid and immutable while later builds write into the
// remaining space. A string that outlives its page keeps the whole
// chunk alive, so a measurement copies the few strings it keeps.
type strArena struct {
	sb    strings.Builder
	start int
	chunk int // the size of the next chunk
}

// arenaChunk is the chunk size of a builder that builds more than once:
// the strings of several pages, so one allocation serves several builds.
const arenaChunk = 32 << 10

// open starts a string of at most about n bytes, in a new chunk when
// the current one lacks the room.
func (a *strArena) open(n int) {
	if a.sb.Cap()-a.sb.Len() < n {
		a.sb = strings.Builder{}
		a.sb.Grow(max(n, a.chunk))
	}
	a.start = a.sb.Len()
}

func (a *strArena) add(s string) { a.sb.WriteString(s) }

func (a *strArena) addInt(v int) {
	var buf [20]byte
	a.sb.Write(strconv.AppendInt(buf[:0], int64(v), 10))
}

func (a *strArena) addBytes(p []byte) { a.sb.Write(p) }

// close returns the string written since open.
func (a *strArena) close() string { return a.sb.String()[a.start:] }

// concat returns the concatenation of parts, cut from the arena.
func (a *strArena) concat(parts ...string) string {
	n := 0
	for _, s := range parts {
		n += len(s)
	}
	a.open(n)
	for _, s := range parts {
		a.add(s)
	}
	return a.close()
}

// distinct is sampleDistinct's reusable storage: the result slice and a
// membership table over [0,n), cleared after each draw.
type distinct struct {
	out  []int
	seen []bool
}

// sample draws k distinct zipf-weighted indices from [0,n), falling back
// to sequential fill if rejection sampling stalls. The result is valid
// until the next sample.
func (d *distinct) sample(rng *rand.Rand, n, k int, s float64) []int {
	if k > n {
		k = n
	}
	if len(d.seen) < n {
		d.seen = make([]bool, n)
	}
	seen := d.seen[:n]
	z := newZipf(n, s)
	out := d.out[:0]
	for attempts := 0; len(out) < k && attempts < 40*k+100; attempts++ {
		idx := z.draw(rng)
		if !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	for i := 0; len(out) < k && i < n; i++ {
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	for _, i := range out {
		seen[i] = false
	}
	d.out = out
	return out
}

// sampleDistinct draws k distinct zipf-weighted indices from [0,n) into
// a fresh slice.
func sampleDistinct(rng *rand.Rand, n, k int, s float64) []int {
	var d distinct
	return d.sample(rng, n, k, s)
}

// permInto fills dst with rng.Perm(len(dst)), drawing exactly as Perm
// does.
func permInto(rng *rand.Rand, dst []int) {
	for i := range dst {
		j := rng.Intn(i + 1)
		dst[i] = dst[j]
		dst[j] = i
	}
}
