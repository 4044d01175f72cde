package core

import (
	"math/rand"
	"testing"
)

// These tests pin the sequential engine's selection — one argmax (or
// argmin) per column over the compacted pending list, merged by
// bestOfColumnsMax (Min) — to a dense v-major scan of the whole cache:
// identical results, including every lowest-(v, t) tie-break, on
// random caches, and zero allocations in the column scans the engine
// runs every step.

// randomCacheState builds a cache with random marginals, a random
// assignment, and the matching compacted ascending pending list.
func randomCacheState(rng *rand.Rand, n, T int) (*marginCache, []int, []int) {
	cache := newMarginCache(n, T)
	for i := range cache.vals {
		// Coarse quantization forces frequent exact ties, stressing the
		// lowest-(v, t) rule.
		cache.vals[i] = float64(rng.Intn(8))
	}
	assign := make([]int, n)
	var pending []int
	for v := range assign {
		assign[v] = -1
		if rng.Intn(3) == 0 {
			assign[v] = rng.Intn(T)
		} else {
			pending = append(pending, v)
		}
	}
	return cache, assign, pending
}

// denseArgmax is the seed's eager selection over a cache: the
// maximum-gain candidate among unassigned sensors, scanning sensors
// then slots in ascending order with a strict > comparison, so ties
// resolve to the lowest (v, t).
func denseArgmax(c *marginCache, assign []int) candidate {
	best := candidate{v: -1, t: -1, value: -1}
	for v := 0; v < c.n; v++ {
		if assign[v] >= 0 {
			continue
		}
		for t := 0; t < c.T; t++ {
			if g := c.at(v, t); g > best.value {
				best = candidate{v: v, t: t, value: g}
			}
		}
	}
	return best
}

// denseArgmin is the removal-mode dual of denseArgmax.
func denseArgmin(c *marginCache, assign []int) candidate {
	best := candidate{v: -1, t: -1}
	found := false
	for v := 0; v < c.n; v++ {
		if assign[v] >= 0 {
			continue
		}
		for t := 0; t < c.T; t++ {
			if l := c.at(v, t); !found || l < best.value {
				best = candidate{v: v, t: t, value: l}
				found = true
			}
		}
	}
	return best
}

// columnArgmax and columnArgmin run the sequential engine's selection
// from scratch: one scan per column, merged across columns.
func columnArgmax(c *marginCache, pending []int) candidate {
	cols := make([]candidate, c.T)
	for t := range cols {
		cols[t] = c.argmaxColumn(t, pending)
	}
	return bestOfColumnsMax(cols)
}

func columnArgmin(c *marginCache, pending []int) candidate {
	cols := make([]candidate, c.T)
	for t := range cols {
		cols[t] = c.argminColumn(t, pending)
	}
	return bestOfColumnsMin(cols)
}

func TestPendingScansMatchRangeScans(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		T := 1 + rng.Intn(6)
		cache, assign, pending := randomCacheState(rng, n, T)

		if got, want := columnArgmax(cache, pending), denseArgmax(cache, assign); got != want {
			t.Fatalf("trial %d: column argmax %+v != dense scan %+v", trial, got, want)
		}
		if got, want := columnArgmin(cache, pending), denseArgmin(cache, assign); got != want {
			t.Fatalf("trial %d: column argmin %+v != dense scan %+v", trial, got, want)
		}
	}
}

func TestDropPendingPreservesOrder(t *testing.T) {
	pending := []int{2, 5, 7, 11, 13}
	pending = dropPending(pending, 7)
	want := []int{2, 5, 11, 13}
	if len(pending) != len(want) {
		t.Fatalf("got %v, want %v", pending, want)
	}
	for i := range want {
		if pending[i] != want[i] {
			t.Fatalf("got %v, want %v", pending, want)
		}
	}
	// Dropping an absent sensor is a no-op.
	if got := dropPending(pending, 99); len(got) != len(want) {
		t.Fatalf("dropPending of absent sensor changed the list: %v", got)
	}
}

// TestPendingScanZeroAlloc gates the sequential engine's steady-state
// column scans at zero allocations.
func TestPendingScanZeroAlloc(t *testing.T) {
	const n, T = 512, 6
	rng := rand.New(rand.NewSource(5))
	cache, _, pending := randomCacheState(rng, n, T)
	if a := testing.AllocsPerRun(100, func() {
		_ = cache.argmaxColumn(1, pending)
		_ = cache.argminColumn(1, pending)
	}); a != 0 {
		t.Fatalf("pending-list scan allocated %v times per run, want 0", a)
	}
}
