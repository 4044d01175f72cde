package core

import (
	"math"
	"testing"

	"cool/internal/stats"
	"cool/internal/submodular"
)

// TestMarginCachePlacementMatchesFresh is the dirty-slot property test:
// drive the climb's own step and, after every step, compare every
// (sensor, slot) cache entry — assigned sensors included — against a
// from-scratch recomputation on fresh oracles replaying the current
// assignment, and each step's choice against a dense scan of the
// cache. The invariant under test: only the mutated slot's column ever
// goes stale, and the refresh restores exactness everywhere. The
// detection and coverage oracles take the walk's column-sparse refresh,
// the EvalOracle the full per-sensor fill, and edgeOracle feeds the
// winner trees NaN, ±Inf, ties and values at and below the −1 floor.
func TestMarginCachePlacementMatchesFresh(t *testing.T) {
	rng := stats.NewRNG(31)
	in, _ := detectionInstance(t, rng, 10, 4, 3)
	checkClimbAgainstFresh(t, in)
	checkClimbAgainstFresh(t, coverageInstance(t, rng, 9, 5, 2))
	checkClimbAgainstFresh(t, evalInstance(t, []float64{1, 2, 3, 4, 5, 6, 7}, 3))
	checkClimbAgainstFresh(t, edgeInstance(coverageInstance(t, rng, 23, 8, 3)))
	checkBatchAgainstFresh(t, rng, coverageInstance(t, rng, 30, 10, 3))
	det, _ := detectionInstance(t, rng, 30, 10, 2)
	checkBatchAgainstFresh(t, rng, det)
}

// TestMarginCacheRemovalMatchesFresh is the removal-mode dual. Its
// edgeOracle run must meet a NaN loss on the first pending sensor,
// which wins its column whatever follows (see climb.winner).
func TestMarginCacheRemovalMatchesFresh(t *testing.T) {
	rng := stats.NewRNG(32)
	in, _ := detectionInstance(t, rng, 8, 3, 0.5)
	checkClimbAgainstFresh(t, in)
	checkClimbAgainstFresh(t, coverageInstance(t, rng, 9, 5, 1.0/3))
	checkClimbAgainstFresh(t, evalInstance(t, []float64{1, 2, 3, 4, 5, 6, 7}, 0.5))
	if firstNaN := checkClimbAgainstFresh(t, edgeInstance(coverageInstance(t, rng, 23, 8, 1.0/3))); firstNaN == 0 {
		t.Error("edgeOracle run never put a NaN loss on the first pending sensor")
	}
	checkBatchAgainstFresh(t, rng, coverageInstance(t, rng, 30, 10, 1.0/3))
	det, _ := detectionInstance(t, rng, 30, 10, 0.5)
	checkBatchAgainstFresh(t, rng, det)
}

// evalInstance builds an instance over EvalOracle, which has neither
// the bulk contract nor an affected list, so the climb takes the
// per-sensor fill and the full-column refresh.
func evalInstance(t *testing.T, sizes []float64, rho float64) Instance {
	t.Helper()
	fn, err := submodular.NewLogSumUtility(sizes)
	if err != nil {
		t.Fatal(err)
	}
	return Instance{
		N:       len(sizes),
		Period:  period(t, rho),
		Factory: func() submodular.RemovalOracle { return submodular.NewEvalOracle(fn) },
	}
}

// checkClimbAgainstFresh runs a whole climb over in step by step (see
// checkRunAgainstFresh).
func checkClimbAgainstFresh(t *testing.T, in Instance) int {
	t.Helper()
	c, err := newClimb(in, ModeFor(in.Period), newAssignment(in.N))
	if err != nil {
		t.Fatal(err)
	}
	pending := make([]int, in.N)
	for v := range pending {
		pending[v] = v
	}
	return checkRunAgainstFresh(t, in, c, pending)
}

// checkBatchAgainstFresh checks a Repairer-style batch insertion: a
// fleet planned with a third of its sensors absent, then up to four of
// those admitted as a small pending batch among assigned and absent
// sensors, and run step by step (see checkRunAgainstFresh).
func checkBatchAgainstFresh(t *testing.T, rng *stats.RNG, in Instance) {
	t.Helper()
	present := make([]bool, in.N)
	var absent []int
	for v := range present {
		if present[v] = rng.Intn(3) != 0; !present[v] {
			absent = append(absent, v)
		}
	}
	c, err := planClimb(in, present)
	if err != nil {
		t.Fatal(err)
	}
	batch := absent[:min(4, len(absent))]
	if len(batch) == len(absent) || len(batch) == 0 {
		t.Fatalf("batch %v leaves no absent sensor beside it (absent %v)", batch, absent)
	}
	c.admit(batch)
	checkRunAgainstFresh(t, in, c, batch)
}

// checkRunAgainstFresh runs c over pending step by step, checking the
// cache against fresh oracles before the first step and after every
// step, and each step's choice against the dense scan — which must
// agree with the climb even on failing: where the scan finds no
// candidate, the step must return an error. Afterwards every pending
// sensor must be assigned. It returns how many steps met a NaN marginal
// on the first pending sensor.
func checkRunAgainstFresh(t *testing.T, in Instance, c *climb, pending []int) (firstNaN int) {
	t.Helper()
	checkAgainstFresh(t, in, c)
	c.begin(pending)
	for step := range pending {
		want := denseBest(c)
		for _, v := range pending {
			if c.assign[v] == -1 {
				for tt := range c.oracles {
					if math.IsNaN(c.cache.at(v, tt)) {
						firstNaN++
						break
					}
				}
				break
			}
		}
		got, err := c.step()
		if want.v < 0 {
			if err == nil {
				t.Fatalf("step %d: dense scan found no candidate, climb chose %+v", step, got)
			}
			return firstNaN
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !sameCandidate(got, want) {
			t.Fatalf("step %d: climb chose %+v, dense scan %+v", step, got, want)
		}
		checkAgainstFresh(t, in, c)
	}
	for _, v := range pending {
		if c.assign[v] < 0 {
			t.Fatalf("sensor %d still unassigned after %d steps", v, len(pending))
		}
	}
	return firstNaN
}

// checkAgainstFresh rebuilds every slot's oracle from scratch by
// replaying the climb's assignment and compares fresh Gain/Loss values
// against the cache for every sensor, assigned or not. NaN must meet
// NaN, and infinities must match exactly.
func checkAgainstFresh(t *testing.T, in Instance, c *climb) {
	t.Helper()
	const tol = 1e-9
	for tt := range c.oracles {
		fresh := in.Factory()
		for v, a := range c.assign {
			// Removal mode: slot t holds every present sensor except
			// those whose chosen passive slot is t; placement: those
			// whose active slot it is. Absent sensors are in no slot.
			if a != Absent && (a == tt) != c.removal {
				fresh.Add(v)
			}
		}
		for v := 0; v < in.N; v++ {
			want := fresh.Gain(v)
			if c.removal {
				want = fresh.Loss(v)
			}
			got := c.cache.at(v, tt)
			if same := got == want || math.Abs(got-want) <= tol || math.IsNaN(got) && math.IsNaN(want); !same {
				t.Fatalf("cache[%d,%d] = %v (assigned %d), fresh recomputation %v", v, tt, got, c.assign[v], want)
			}
		}
	}
}

// edgeOracle wraps an oracle and overrides its marginals with the
// values that stress the winner trees: NaN, ±Inf, −1 and below, and
// exact ties. The override is a pure function of the sensor and the
// set's size, so a fresh oracle replaying the same set agrees bit for
// bit. A mutation can move every marginal, so it lists every sensor as
// affected and the climb's walk rewrites and reports every row. A NaN
// loss depends on the set's size
// too, so once the slots' sets differ in size a sensor's loss can be
// NaN in some slots and finite in others — the case where the dense
// scan's first-pair rule holds in slot 0 only (see climb.winner).
type edgeOracle struct {
	submodular.RemovalOracle
	n, size int
}

// edgeInstance wraps every slot oracle of in in an edgeOracle.
func edgeInstance(in Instance) Instance {
	factory, n := in.Factory, in.N
	in.Factory = func() submodular.RemovalOracle { return &edgeOracle{RemovalOracle: factory(), n: n} }
	return in
}

func (o *edgeOracle) override(v int, m float64) float64 {
	switch (3*v + 5*o.size) % 13 {
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return -1
	case 4:
		return -2.5
	case 5, 6:
		return 0.25
	}
	return m
}

func (o *edgeOracle) Gain(v int) float64 {
	if (3*v+5*o.size)%13 == 0 {
		return math.NaN()
	}
	return o.override(v, o.RemovalOracle.Gain(v))
}

func (o *edgeOracle) Loss(v int) float64 {
	if (2*v+o.size)%5 == 2 {
		return math.NaN()
	}
	return o.override(v, o.RemovalOracle.Loss(v))
}

func (o *edgeOracle) Add(v int) {
	if !o.Contains(v) {
		o.size++
	}
	o.RemovalOracle.Add(v)
}

func (o *edgeOracle) Remove(v int) {
	if o.Contains(v) {
		o.size--
	}
	o.RemovalOracle.Remove(v)
}

func (o *edgeOracle) AppendAffected(buf []int32, _ int) []int32 {
	for v := 0; v < o.n; v++ {
		buf = append(buf, int32(v))
	}
	return buf
}

// TestClimbCommitZeroAlloc gates the climb's per-step oracle work at
// zero allocations on the detection and coverage oracles: commit and
// lift each mutate one oracle, and a one-sensor refresh walks the
// affected list through the interface call into the climb's reused
// buffers — between runs, and inside one, where the walk's row report
// also updates the winner trees.
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
			for _, inRun := range []bool{false, true} {
				if inRun {
					pending := make([]int, in.N)
					for v := range pending {
						pending[v] = v
					}
					c.begin(pending)
				}
				c.one[0] = 2
				if a := testing.AllocsPerRun(200, func() {
					c.commit(2, 1)
					c.refresh(1, c.one[:])
					c.lift(2, 1)
					c.refresh(1, c.one[:])
				}); a != 0 {
					t.Errorf("%s ρ=%v in run %v: commit+lift allocated %v times per run, want 0", name, rho, inRun, a)
				}
			}
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
