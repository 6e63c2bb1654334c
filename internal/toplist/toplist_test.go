package toplist

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// topBySort is the full comparator sort Top replaced, kept as its
// oracle: every domain ranked by descending logpop, ties by ascending
// name, then the first k kept.
func topBySort(u *Universe, k int) []Entry {
	k = min(k, len(u.domains))
	idx := make([]int, len(u.domains))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		da, db := &u.domains[idx[a]], &u.domains[idx[b]]
		pa, pb := da.logpop(), db.logpop()
		if pa != pb {
			return pa > pb
		}
		return da.name < db.name
	})
	out := make([]Entry, k)
	for r := 0; r < k; r++ {
		out[r] = Entry{Rank: r + 1, Domain: u.domains[idx[r]].name}
	}
	return out
}

// TestTopMatchesComparatorSort holds Top to the full sort after several
// Steps, and on a universe whose popularities are hand-set to a few
// equal values, so that the name tie-break orders most of the list.
func TestTopMatchesComparatorSort(t *testing.T) {
	check := func(what string, u *Universe) {
		t.Helper()
		n := len(u.domains)
		for _, k := range []int{0, 1, 7, n / 3, n - 1, n, n + 10} {
			if got, want := u.Top(k), topBySort(u, k); !slices.Equal(got, want) {
				t.Fatalf("%s: Top(%d) differs from the comparator sort", what, k)
			}
		}
	}
	u := NewUniverse(Config{Seed: 5, Size: 3000})
	for day := 0; day < 10; day += 1 + day {
		check(fmt.Sprintf("day %d", day), u)
		u.Step(1 + day)
	}

	tied := NewUniverse(Config{Seed: 6, Size: 1200})
	for i := range tied.domains {
		d := &tied.domains[i]
		d.anchor, d.dev = float64(i%4), 0
	}
	check("four popularity levels", tied)
}

func TestTopRanksOrdered(t *testing.T) {
	u := NewUniverse(Config{Seed: 1, Size: 2000})
	top := u.Top(100)
	if len(top) != 100 {
		t.Fatalf("Top(100) = %d entries", len(top))
	}
	seen := map[string]bool{}
	for i, e := range top {
		if e.Rank != i+1 {
			t.Fatalf("rank %d at position %d", e.Rank, i)
		}
		if seen[e.Domain] {
			t.Fatalf("duplicate domain %s", e.Domain)
		}
		seen[e.Domain] = true
	}
	if got := u.Top(5000); len(got) != 2000 {
		t.Errorf("Top beyond universe = %d, want clamp to 2000", len(got))
	}
}

func TestDeterminism(t *testing.T) {
	a := NewUniverse(Config{Seed: 7, Size: 500})
	b := NewUniverse(Config{Seed: 7, Size: 500})
	a.Step(10)
	b.Step(10)
	ta, tb := a.Top(50), b.Top(50)
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("universes diverged at %d: %v vs %v", i, ta[i], tb[i])
		}
	}
}

func TestChurnGrowsWithTime(t *testing.T) {
	u := NewUniverse(Config{Seed: 2, Size: 20000})
	base := u.Top(1000)
	u.Step(1)
	day1 := Churn(base, u.Top(1000))
	u.Step(13)
	day14 := Churn(base, u.Top(1000))
	if day1 <= 0 {
		t.Error("expected nonzero daily churn")
	}
	if day14 <= day1 {
		t.Errorf("churn should grow with horizon: day1=%.3f day14=%.3f", day1, day14)
	}
	if day1 > 0.5 {
		t.Errorf("daily churn unrealistically high: %.3f", day1)
	}
}

func TestChurnDeeperListsChurnMore(t *testing.T) {
	// A deep list churns more than the head — provided the universe is
	// much larger than the list (as with Alexa's 1M universe vs its
	// 100K slice, §3).
	u := NewUniverse(Config{Seed: 3, Size: 120000})
	top2k := u.Top(2000)
	top30k := u.Top(30000)
	u.Step(7)
	c2 := Churn(top2k, u.Top(2000))
	c30 := Churn(top30k, u.Top(30000))
	if c30 <= c2 {
		t.Errorf("deep-list churn %.3f should exceed top churn %.3f", c30, c2)
	}
}

func TestChurnAndOverlapEdgeCases(t *testing.T) {
	if Churn(nil, nil) != 0 {
		t.Error("empty churn should be 0")
	}
	a := []Entry{{1, "a"}, {2, "b"}}
	if got := Churn(a, a); got != 0 {
		t.Errorf("identical churn = %v", got)
	}
	if got := Churn(a, nil); got != 1 {
		t.Errorf("total churn = %v", got)
	}
	// Partial overlap: one of a's two domains survives into b.
	b := []Entry{{1, "a"}, {2, "c"}}
	if got := Churn(a, b); got != 0.5 {
		t.Errorf("partial churn = %v, want 1/2", got)
	}
}

func TestDomainNameStable(t *testing.T) {
	if DomainName(1, 5) != DomainName(1, 5) {
		t.Error("domain name not deterministic")
	}
	if DomainName(1, 5) == DomainName(1, 6) {
		t.Error("adjacent indexes should differ")
	}
}
