package stats

import "slices"

// TopK returns the first k elements of xs in cmp order — what sorting
// xs and keeping k would return — without sorting the rest. A bounded
// heap holds the k best elements seen so far, the worst of them at its
// root, so an element that cannot make the cut costs one comparison; the
// k survivors are sorted at the end.
//
// cmp must be a total order: it returns 0 only for elements that are
// interchangeable. Then the result equals a full sort's first k. k is
// clamped to [0, len(xs)]; xs is not modified and the result does not
// alias it.
func TopK[T any](xs []T, k int, cmp func(a, b T) int) []T {
	k = max(0, min(k, len(xs)))
	h := slices.Clone(xs[:k])
	if k > 0 && k < len(xs) {
		for i := k/2 - 1; i >= 0; i-- {
			siftDown(h, i, cmp)
		}
		for _, x := range xs[k:] {
			if cmp(x, h[0]) < 0 {
				h[0] = x
				siftDown(h, 0, cmp)
			}
		}
	}
	slices.SortFunc(h, cmp)
	return h
}

// siftDown restores the heap order below h[i], where a parent never
// precedes its children in cmp order (the worst element is at h[0]).
func siftDown[T any](h []T, i int, cmp func(a, b T) int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && cmp(h[c+1], h[c]) > 0 {
			c++
		}
		if cmp(h[c], h[i]) <= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
