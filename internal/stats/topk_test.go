package stats

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestTopKMatchesFullSort holds TopK to slices.SortFunc's first k over
// random inputs drawn from a small value range, so most values tie and
// the index tie-break decides their order, at the boundary values of k.
func TestTopKMatchesFullSort(t *testing.T) {
	type item struct {
		v   int
		idx int
	}
	byValueDesc := func(a, b item) int {
		if c := cmp.Compare(b.v, a.v); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(60)
		spread := 1 + rng.Intn(8) // 1: every value ties
		xs := make([]item, n)
		for i := range xs {
			xs[i] = item{v: rng.Intn(spread), idx: i}
		}
		rng.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		orig := slices.Clone(xs)
		sorted := slices.Clone(xs)
		slices.SortFunc(sorted, byValueDesc)
		for _, k := range []int{-1, 0, 1, n / 2, n - 1, n, n + 1} {
			got := TopK(xs, k, byValueDesc)
			want := sorted[:max(0, min(k, n))]
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: TopK(n=%d, k=%d) = %v, full sort %v", trial, n, k, got, want)
			}
			if !slices.Equal(xs, orig) {
				t.Fatalf("trial %d: TopK(k=%d) modified its input", trial, k)
			}
			if len(got) > 0 && &got[0] == &xs[0] {
				t.Fatalf("trial %d: TopK(k=%d) aliases its input", trial, k)
			}
		}
	}
}

// TestTopKPlainValues checks TopK on bare ints, where equal elements are
// interchangeable and cmp alone is the order.
func TestTopKPlainValues(t *testing.T) {
	xs := []int{5, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	if got, want := TopK(xs, 4, cmp.Compare[int]), []int{1, 1, 2, 3}; !slices.Equal(got, want) {
		t.Errorf("TopK ascending = %v, want %v", got, want)
	}
	desc := func(a, b int) int { return cmp.Compare(b, a) }
	if got, want := TopK(xs, 5, desc), []int{9, 6, 5, 5, 5}; !slices.Equal(got, want) {
		t.Errorf("TopK descending = %v, want %v", got, want)
	}
	if got := TopK[int](nil, 3, desc); len(got) != 0 {
		t.Errorf("TopK(nil) = %v, want empty", got)
	}
}
