package core

import (
	"math"
	"testing"

	"cool/internal/stats"
	"cool/internal/submodular"
)

// TestMarginCachePlacementMatchesFresh is the dirty-slot property test:
// drive the cached placement greedy step by step and, after every
// refresh, compare each unassigned (sensor, slot) cache entry against a
// from-scratch gain recomputation on fresh oracles replaying the
// current assignment. The invariant under test: only the mutated slot's
// column ever goes stale, and the refresh restores exactness
// everywhere.
func TestMarginCachePlacementMatchesFresh(t *testing.T) {
	rng := stats.NewRNG(31)
	in, _ := detectionInstance(t, rng, 10, 4, 3)
	T := in.Period.Slots()
	oracles := make([]submodular.RemovalOracle, T)
	for tt := range oracles {
		oracles[tt] = in.Factory()
	}
	assign := newAssignment(in.N)
	cache := newMarginCache(in.N, T)
	for tt := 0; tt < T; tt++ {
		cache.fillSlot(tt, assign, oracles[tt].Gain)
	}
	checkAgainstFresh(t, in, cache, assign, false)
	pending := newPending(in.N)
	for step := 0; step < in.N; step++ {
		best := columnArgmax(cache, pending)
		if want := denseArgmax(cache, assign); best != want || best.v < 0 {
			t.Fatalf("step %d: column scans chose %+v, dense scan %+v", step, best, want)
		}
		oracles[best.t].Add(best.v)
		assign[best.v] = best.t
		pending = dropPending(pending, best.v)
		cache.fillSlot(best.t, assign, oracles[best.t].Gain)
		checkAgainstFresh(t, in, cache, assign, false)
	}
}

// TestMarginCacheRemovalMatchesFresh is the removal-mode dual.
func TestMarginCacheRemovalMatchesFresh(t *testing.T) {
	rng := stats.NewRNG(32)
	in, _ := detectionInstance(t, rng, 8, 3, 0.5)
	T := in.Period.Slots()
	oracles := make([]submodular.RemovalOracle, T)
	for tt := range oracles {
		o := in.Factory()
		for v := 0; v < in.N; v++ {
			o.Add(v)
		}
		oracles[tt] = o
	}
	assign := newAssignment(in.N)
	cache := newMarginCache(in.N, T)
	for tt := 0; tt < T; tt++ {
		cache.fillSlot(tt, assign, oracles[tt].Loss)
	}
	checkAgainstFresh(t, in, cache, assign, true)
	pending := newPending(in.N)
	for step := 0; step < in.N; step++ {
		best := columnArgmin(cache, pending)
		if want := denseArgmin(cache, assign); best != want || best.v < 0 {
			t.Fatalf("step %d: column scans chose %+v, dense scan %+v", step, best, want)
		}
		oracles[best.t].Remove(best.v)
		assign[best.v] = best.t
		pending = dropPending(pending, best.v)
		cache.fillSlot(best.t, assign, oracles[best.t].Loss)
		checkAgainstFresh(t, in, cache, assign, true)
	}
}

// checkAgainstFresh rebuilds every slot's oracle from scratch by
// replaying assign and compares fresh Gain/Loss values against the
// cache for all unassigned sensors.
func checkAgainstFresh(t *testing.T, in Instance, cache *marginCache, assign []int, removal bool) {
	t.Helper()
	T := in.Period.Slots()
	const tol = 1e-9
	for tt := 0; tt < T; tt++ {
		fresh := in.Factory()
		if removal {
			// Removal mode: slot t holds every sensor except those whose
			// chosen passive slot is t.
			for v := 0; v < in.N; v++ {
				if assign[v] != tt {
					fresh.Add(v)
				}
			}
		} else {
			for v := 0; v < in.N; v++ {
				if assign[v] == tt {
					fresh.Add(v)
				}
			}
		}
		for v := 0; v < in.N; v++ {
			if assign[v] >= 0 {
				continue // stale by design; scans skip assigned sensors
			}
			var want float64
			if removal {
				want = fresh.Loss(v)
			} else {
				want = fresh.Gain(v)
			}
			if got := cache.at(v, tt); math.Abs(got-want) > tol {
				t.Fatalf("cache[%d,%d] = %v, fresh recomputation %v", v, tt, got, want)
			}
		}
	}
}

func TestChunkBounds(t *testing.T) {
	cases := []struct{ n, k int }{
		{10, 3}, {10, 1}, {10, 10}, {3, 8}, {1, 1}, {7, 2},
	}
	for _, c := range cases {
		bounds := chunkBounds(c.n, c.k)
		if bounds[0] != 0 || bounds[len(bounds)-1] != c.n {
			t.Fatalf("chunkBounds(%d,%d) = %v: bad endpoints", c.n, c.k, bounds)
		}
		minSize, maxSize := c.n, 0
		for w := 0; w+1 < len(bounds); w++ {
			size := bounds[w+1] - bounds[w]
			if size <= 0 {
				t.Fatalf("chunkBounds(%d,%d) = %v: empty range", c.n, c.k, bounds)
			}
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
		}
		if maxSize-minSize > 1 {
			t.Errorf("chunkBounds(%d,%d) = %v: imbalanced", c.n, c.k, bounds)
		}
	}
}

// TestMergeTieBreak verifies that merging per-column candidates
// reproduces the dense scan's lowest-(v, t) tie-break: with equal
// values the lower sensor wins even from a later column, an equal
// sensor keeps the earlier column, and empty columns (v = -1) are
// skipped.
func TestMergeTieBreak(t *testing.T) {
	cols := []candidate{
		{v: 9, t: 0, value: 2},
		{v: 5, t: 1, value: 2},
		{v: 5, t: 2, value: 2},
	}
	if got := bestOfColumnsMax(cols); got.v != 5 || got.t != 1 {
		t.Errorf("bestOfColumnsMax tie: got (%d,%d), want (5,1)", got.v, got.t)
	}
	if got := bestOfColumnsMin(cols); got.v != 5 || got.t != 1 {
		t.Errorf("bestOfColumnsMin tie: got (%d,%d), want (5,1)", got.v, got.t)
	}
	cols = []candidate{{v: -1}, {v: 3, t: 1, value: 1}}
	if got := bestOfColumnsMax(cols); got.v != 3 {
		t.Errorf("bestOfColumnsMax skipped wrong candidate: %+v", got)
	}
	cols = []candidate{{v: -1}, {v: 3, t: 1, value: -1}}
	if got := bestOfColumnsMin(cols); got.v != 3 {
		t.Errorf("bestOfColumnsMin skipped wrong candidate: %+v", got)
	}
}
