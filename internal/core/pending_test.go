package core

import (
	"math"
	"math/rand"
	"testing"

	"cool/internal/submodular"
)

// These tests pin the climb's indexed selection — one winner tree per
// column over the run's pending list, merged by bestOfColumnsMax (Min)
// — to the column scans it replaced (scanColumnMax/Min): identical
// picks per column and merged, including every lowest-(v, t)
// tie-break, the placement floor, NaN and ±Inf, on random caches and
// across random leaf updates; and zero allocations in the tree updates
// a step runs. checkClimbAgainstFresh holds whole runs to the dense
// v-major scan.

// edgeMarginals are the values that stress the selection rules: the
// placement floor and values below it, NaN, and both infinities.
var edgeMarginals = []float64{-1, -1.5, math.NaN(), math.Inf(1), math.Inf(-1)}

// randomMarginal draws a coarse value — frequent exact ties stress the
// lowest-(v, t) rule — or, one time in four, an edge value.
func randomMarginal(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return edgeMarginals[rng.Intn(len(edgeMarginals))]
	}
	return float64(rng.Intn(8))
}

// randomCacheState builds a cache with random marginals, a random
// assignment (assigned, absent and unassigned sensors), and the
// ascending list of the unassigned ones.
func randomCacheState(rng *rand.Rand, n, T int) (*marginCache, []int, []int) {
	cache := newMarginCache(n, T)
	for i := range cache.vals {
		cache.vals[i] = randomMarginal(rng)
	}
	assign := make([]int, n)
	var pending []int
	for v := range assign {
		switch rng.Intn(4) {
		case 0:
			assign[v] = rng.Intn(T)
		case 1:
			assign[v] = Absent
		default:
			assign[v] = -1
			pending = append(pending, v)
		}
	}
	return cache, assign, pending
}

// denseArgmax is the seed's eager selection over a cache: the
// maximum-gain candidate among unassigned sensors, scanning sensors
// then slots in ascending order with a strict > comparison from the −1
// floor, so ties resolve to the lowest (v, t) and NaN never wins.
func denseArgmax(c *marginCache, assign []int) candidate {
	best := candidate{v: -1, t: -1, value: -1}
	for v := 0; v < c.n; v++ {
		if assign[v] != -1 {
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

// denseArgmin is the removal-mode dual of denseArgmax. It takes the
// first unassigned pair whatever its loss and replaces it only on a
// strictly smaller one, so a NaN on that first pair wins.
func denseArgmin(c *marginCache, assign []int) candidate {
	best := candidate{v: -1, t: -1}
	found := false
	for v := 0; v < c.n; v++ {
		if assign[v] != -1 {
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

// scanColumnMax is the column scan the winner trees replaced: slot t's
// best candidate among the ascending pending list, with a strict >
// comparison from the −1 floor, so ties go to the lowest v and NaN
// never wins.
func scanColumnMax(c *marginCache, t int, pending []int) candidate {
	best := candidate{v: -1, t: -1, value: -1}
	for _, v := range pending {
		if g := c.at(v, t); g > best.value {
			best = candidate{v: v, t: t, value: g}
		}
	}
	return best
}

// scanColumnMin is the removal dual. Slot 0 carries the dense scan's
// first-pair rule: it takes the first pending sensor whatever its loss
// and replaces it only on a strictly smaller one, so a NaN there wins
// the column. Every later slot skips NaN losses, so a NaN of the first
// pending sensor cannot hide that column's minimum.
func scanColumnMin(c *marginCache, t int, pending []int) candidate {
	best := candidate{v: -1, t: -1}
	found := false
	for _, v := range pending {
		l := c.at(v, t)
		if t > 0 && math.IsNaN(l) {
			continue
		}
		if !found || l < best.value {
			best = candidate{v: v, t: t, value: l}
			found = true
		}
	}
	return best
}

// scanColumns is the selection the winner trees replaced: one column
// scan per slot over the still-unassigned sensors of pending.
func scanColumns(c *climb) []candidate {
	var live []int
	for _, v := range c.pending {
		if c.assign[v] == -1 {
			live = append(live, v)
		}
	}
	cols := make([]candidate, len(c.oracles))
	for t := range cols {
		if c.removal {
			cols[t] = scanColumnMin(c.cache, t, live)
		} else {
			cols[t] = scanColumnMax(c.cache, t, live)
		}
	}
	return cols
}

// denseBest is the dense scan of c's regime.
func denseBest(c *climb) candidate {
	if c.removal {
		return denseArgmin(c.cache, c.assign)
	}
	return denseArgmax(c.cache, c.assign)
}

// sameCandidate compares two picks bit for bit; every empty pick is
// the same.
func sameCandidate(a, b candidate) bool {
	if a.v < 0 || b.v < 0 {
		return a.v < 0 && b.v < 0
	}
	return a.v == b.v && a.t == b.t && math.Float64bits(a.value) == math.Float64bits(b.value)
}

// treeClimb starts a run over pending on a climb that has only a
// cache, an assignment and a regime — all the trees read.
func treeClimb(cache *marginCache, assign, pending []int, removal bool) *climb {
	c := &climb{
		oracles: make([]submodular.RemovalOracle, cache.T),
		cache:   cache,
		assign:  assign,
		removal: removal,
		cands:   make([]candidate, cache.T),
	}
	c.begin(pending)
	return c
}

// TestPendingScansMatchRangeScans holds each tree's winner and the
// merged pick to the column scans on random tie-heavy caches with edge
// values, in both regimes, after the build and after every random
// update: a batch of rewritten entries in one column, reported as rows
// and reindexed, or a pending sensor retired (assigned, its leaf killed
// in every tree). The merged pick must also be the dense scan's.
func TestPendingScansMatchRangeScans(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		T := 1 + rng.Intn(6)
		for _, removal := range []bool{false, true} {
			cache, assign, pending := randomCacheState(rng, n, T)
			c := treeClimb(cache, assign, pending, removal)
			for round := 0; round < 12; round++ {
				got, cols := c.best(), scanColumns(c)
				for col, w := range cols {
					if !sameCandidate(c.cands[col], w) {
						t.Fatalf("trial %d removal=%v round %d: column %d tree winner %+v != scan %+v", trial, removal, round, col, c.cands[col], w)
					}
				}
				want := bestOfColumnsMax(cols)
				if removal {
					want = bestOfColumnsMin(cols)
				}
				if !sameCandidate(got, want) {
					t.Fatalf("trial %d removal=%v round %d: tree pick %+v != column scans %+v", trial, removal, round, got, want)
				}
				if !sameCandidate(got, denseBest(c)) {
					t.Fatalf("trial %d removal=%v round %d: tree pick %+v != dense scan %+v", trial, removal, round, got, denseBest(c))
				}
				if rng.Intn(3) == 0 && c.left > 0 {
					v := pending[rng.Intn(len(pending))]
					if c.assign[v] != -1 {
						continue
					}
					c.retire(v, rng.Intn(T))
					continue
				}
				col := rng.Intn(T)
				var rows []int32
				for _, v := range rng.Perm(n)[:1+rng.Intn(n)] {
					cache.column(col)[v] = randomMarginal(rng)
					rows = append(rows, int32(v))
				}
				c.reindex(col, rows)
			}
		}
	}
}

// TestPendingScanZeroAlloc gates the tree work of a step at zero
// allocations: reindexing a refresh's reported rows and merging the
// column winners.
func TestPendingScanZeroAlloc(t *testing.T) {
	const n, T = 512, 6
	rng := rand.New(rand.NewSource(5))
	for _, removal := range []bool{false, true} {
		cache, assign, pending := randomCacheState(rng, n, T)
		c := treeClimb(cache, assign, pending, removal)
		report := []int32{3, 40, 41, 200, 511, 7}
		rows := make([]int32, len(report))
		if a := testing.AllocsPerRun(100, func() {
			copy(rows, report)
			c.reindex(1, rows)
			_ = c.best()
		}); a != 0 {
			t.Fatalf("removal=%v: tree update and selection allocated %v times per run, want 0", removal, a)
		}
	}
}
