package core

import (
	"math"
	"math/rand"
	"testing"

	"cool/internal/submodular"
)

// These tests pin the climb's indexed selection — one winner tree over
// the run's table rows, each leaf its row's best slot — to the dense
// v-major scan of ReferenceGreedy: identical picks, including every
// lowest-(v, t) tie-break, the placement floor, NaN and ±Inf, and
// removal's first-pair rule, on random tie-heavy tables, after the
// build and across random refreshes and retires; and zero allocations
// in the tree work a step runs. checkClimbAgainstFresh holds whole runs
// to the same scan.

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

// tableOracle answers slot t's marginals, gain and loss alike, from a
// matrix the test rewrites, vals[v·T+t], and lists no sensor as
// affected, so a refresh over changed recomputes exactly the rows of
// changed. A run calls no other method.
type tableOracle struct {
	submodular.RemovalOracle
	vals []float64
	t, T int
}

func (o *tableOracle) Gain(v int) float64                        { return o.vals[v*o.T+o.t] }
func (o *tableOracle) Loss(v int) float64                        { return o.vals[v*o.T+o.t] }
func (o *tableOracle) AppendAffected(buf []int32, _ int) []int32 { return buf }

// tableClimb starts a run on a climb of T slots over n sensors whose
// oracles answer from one random tie-heavy matrix, which it returns: a
// random assignment of assigned, absent and unassigned sensors, the run
// pending over the unassigned ones.
func tableClimb(rng *rand.Rand, n, T int, removal bool) (*climb, []float64) {
	vals := make([]float64, n*T)
	for i := range vals {
		vals[i] = randomMarginal(rng)
	}
	c := &climb{oracles: make([]submodular.RemovalOracle, T), assign: make([]int, n), removal: removal}
	for t := range c.oracles {
		c.oracles[t] = &tableOracle{vals: vals, t: t, T: T}
	}
	var pending []int
	for v := range c.assign {
		switch rng.Intn(4) {
		case 0:
			c.assign[v] = rng.Intn(T)
		case 1:
			c.assign[v] = Absent
		default:
			c.assign[v] = -1
			pending = append(pending, v)
		}
	}
	c.begin(pending)
	return c, vals
}

// denseScan is ReferenceGreedy's eager selection over the table of c's
// run: the rows of the unassigned sensors, sensors then slots in
// ascending order. Placement takes a strictly larger gain from the −1
// floor, so ties go to the lowest (v, t) and NaN never wins. Removal
// takes the first pair whatever its loss and replaces it only on a
// strictly smaller one, so a NaN on that first pair wins.
func denseScan(c *climb) candidate {
	T := len(c.oracles)
	best := candidate{value: -1, v: noSensor, t: -1}
	for i, v := range c.pending {
		if c.assign[v] != -1 {
			continue
		}
		for t, m := range c.table[i*T : (i+1)*T] {
			if c.removal && (best.v < 0 || m < best.value) || !c.removal && m > best.value {
				best = candidate{value: m, v: int32(v), t: int32(t)}
			}
		}
	}
	return best
}

// sameCandidate compares two picks bit for bit; every empty pick is
// the same.
func sameCandidate(a, b candidate) bool {
	if a.v < 0 || b.v < 0 {
		return a.v < 0 && b.v < 0
	}
	return a.same(b)
}

// TestPendingScansMatchRangeScans holds the tree's pick to the dense
// v-major scan on random tie-heavy tables with edge values, in both
// regimes, after the build and after every random update: a batch of
// rewritten marginals in one slot, refreshed through the walk, or a
// pending sensor retired (assigned, its leaf killed). Every unassigned
// row of the table must also equal the oracles' answers, bit for bit.
func TestPendingScansMatchRangeScans(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		T := 1 + rng.Intn(6)
		for _, removal := range []bool{false, true} {
			c, vals := tableClimb(rng, n, T, removal)
			for round := 0; round < 12; round++ {
				for i, v := range c.pending {
					for tt := 0; tt < T && c.assign[v] == -1; tt++ {
						if got, want := c.table[i*T+tt], vals[v*T+tt]; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("trial %d removal=%v round %d: table[%d,%d] = %v, oracle %v", trial, removal, round, v, tt, got, want)
						}
					}
				}
				if got, want := c.best(), denseScan(c); !sameCandidate(got, want) {
					t.Fatalf("trial %d removal=%v round %d: tree pick %+v != dense scan %+v", trial, removal, round, got, want)
				}
				if rng.Intn(3) == 0 && c.left > 0 {
					if v := c.pending[rng.Intn(len(c.pending))]; c.assign[v] == -1 {
						c.retire(v, rng.Intn(T))
					}
					continue
				}
				col := rng.Intn(T)
				var changed []int
				for _, v := range rng.Perm(n)[:1+rng.Intn(n)] {
					vals[v*T+col] = randomMarginal(rng)
					changed = append(changed, v)
				}
				c.refresh(col, changed)
			}
		}
	}
}

// TestPendingScanZeroAlloc gates the tree work of a step at zero
// allocations: a refresh that rewrites a column's entries for the rows
// of changed, rescans those rows and updates their paths, and the
// selection of the root.
func TestPendingScanZeroAlloc(t *testing.T) {
	const n, T = 512, 6
	rng := rand.New(rand.NewSource(5))
	for _, removal := range []bool{false, true} {
		c, vals := tableClimb(rng, n, T, removal)
		changed := []int{3, 40, 41, 200, 511, 7}
		if a := testing.AllocsPerRun(100, func() {
			for _, v := range changed {
				vals[v*T+1] = randomMarginal(rng)
			}
			c.refresh(1, changed)
			_ = c.best()
		}); a != 0 {
			t.Fatalf("removal=%v: tree update and selection allocated %v times per run, want 0", removal, a)
		}
	}
}
