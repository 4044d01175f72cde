package core

import (
	"math"
	"testing"

	"cool/internal/stats"
)

// TestMarginCachePlacementMatchesFresh is the dirty-slot property test:
// drive the climb's own step and, after every step, compare every
// (sensor, slot) cache entry — assigned sensors included — against a
// from-scratch recomputation on fresh oracles replaying the current
// assignment, and each step's choice against a dense scan of the
// cache. The invariant under test: only the mutated slot's column ever
// goes stale, and the refresh restores exactness everywhere. The
// detection and coverage oracles take the column-sparse refresh, the
// EvalOracle the full per-sensor fill.
func TestMarginCachePlacementMatchesFresh(t *testing.T) {
	rng := stats.NewRNG(31)
	in, _ := detectionInstance(t, rng, 10, 4, 3)
	checkClimbAgainstFresh(t, in)
	checkClimbAgainstFresh(t, coverageInstance(t, rng, 9, 5, 2))
	checkClimbAgainstFresh(t, evalInstance(t, []float64{1, 2, 3, 4, 5, 6, 7}, 3))
}

// TestMarginCacheRemovalMatchesFresh is the removal-mode dual.
func TestMarginCacheRemovalMatchesFresh(t *testing.T) {
	rng := stats.NewRNG(32)
	in, _ := detectionInstance(t, rng, 8, 3, 0.5)
	checkClimbAgainstFresh(t, in)
	checkClimbAgainstFresh(t, coverageInstance(t, rng, 9, 5, 1.0/3))
	checkClimbAgainstFresh(t, evalInstance(t, []float64{1, 2, 3, 4, 5, 6, 7}, 0.5))
}

// checkClimbAgainstFresh runs a whole climb over in step by step,
// checking the cache against fresh oracles before the first step and
// after every step, and each step's choice against the dense scan.
func checkClimbAgainstFresh(t *testing.T, in Instance) {
	t.Helper()
	c, err := newClimb(in, ModeFor(in.Period), newAssignment(in.N))
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstFresh(t, in, c)
	pending := make([]int, in.N)
	for v := range pending {
		pending[v] = v
	}
	c.begin(pending)
	for step := 0; step < in.N; step++ {
		want := denseArgmax(c.cache, c.assign)
		if c.removal {
			want = denseArgmin(c.cache, c.assign)
		}
		got, err := c.step()
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got != want {
			t.Fatalf("step %d: climb chose %+v, dense scan %+v", step, got, want)
		}
		checkAgainstFresh(t, in, c)
	}
	if len(c.pending) != 0 {
		t.Fatalf("%d sensors still pending after %d steps", len(c.pending), in.N)
	}
}

// checkAgainstFresh rebuilds every slot's oracle from scratch by
// replaying the climb's assignment and compares fresh Gain/Loss values
// against the cache for every sensor, assigned or not.
func checkAgainstFresh(t *testing.T, in Instance, c *climb) {
	t.Helper()
	const tol = 1e-9
	for tt := range c.oracles {
		fresh := in.Factory()
		for v, a := range c.assign {
			// Removal mode: slot t holds every sensor except those whose
			// chosen passive slot is t; placement: those whose active
			// slot it is.
			if (a == tt) != c.removal {
				fresh.Add(v)
			}
		}
		for v := 0; v < in.N; v++ {
			want := fresh.Gain(v)
			if c.removal {
				want = fresh.Loss(v)
			}
			if got := c.cache.at(v, tt); math.Abs(got-want) > tol {
				t.Fatalf("cache[%d,%d] = %v (assigned %d), fresh recomputation %v", v, tt, got, c.assign[v], want)
			}
		}
	}
}

// TestClimbCommitZeroAlloc gates the climb's per-step oracle work at
// zero allocations on the detection and coverage oracles: commit and
// lift each mutate one oracle and refresh its column through the batch
// sparse contract with a one-element changed list, which must not
// escape to the heap through the interface call.
func TestClimbCommitZeroAlloc(t *testing.T) {
	rng := stats.NewRNG(33)
	for _, rho := range []float64{3, 1.0 / 3} {
		det, _ := detectionInstance(t, rng, 40, 6, rho)
		for name, in := range map[string]Instance{
			"detection": det,
			"coverage":  coverageInstance(t, rng, 40, 8, rho),
		} {
			c, err := newClimb(in, ModeFor(in.Period), newAssignment(in.N))
			if err != nil {
				t.Fatal(err)
			}
			if a := testing.AllocsPerRun(200, func() {
				c.commit(2, 1)
				c.lift(2, 1)
			}); a != 0 {
				t.Errorf("%s ρ=%v: commit+lift allocated %v times per run, want 0", name, rho, a)
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
