package core

import (
	"math"
	"testing"

	"cool/internal/stats"
	"cool/internal/submodular"
)

// TestMarginCachePlacementMatchesFresh is the dirty-slot property test
// for a run's margin table: drive the climb's own step and, after every
// step, compare every unassigned pending row of the table against a
// from-scratch recomputation on fresh oracles replaying the current
// assignment, and each step's choice against the dense scan of the
// table. The invariant under test: a step leaves only the committed
// slot's column stale, and the refresh restores every unassigned row of
// it. The detection and coverage oracles take the bulk fill and the
// walk's sparse refresh, the EvalOracle the per-row fill and the full
// refresh, edgeOracle feeds the tree NaN, ±Inf, ties and values at and
// below the −1 floor, and the batch runs fill their rows by queries
// among assigned and absent sensors, as a Repairer's insertion does.
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
// edgeOracle run must meet a step that the first-pair rule decides: a
// NaN loss of the lowest unassigned sensor in slot 0, which wins
// whatever follows (see climb.best).
func TestMarginCacheRemovalMatchesFresh(t *testing.T) {
	rng := stats.NewRNG(32)
	in, _ := detectionInstance(t, rng, 8, 3, 0.5)
	checkClimbAgainstFresh(t, in)
	checkClimbAgainstFresh(t, coverageInstance(t, rng, 9, 5, 1.0/3))
	checkClimbAgainstFresh(t, evalInstance(t, []float64{1, 2, 3, 4, 5, 6, 7}, 0.5))
	if firstNaN := checkClimbAgainstFresh(t, edgeInstance(coverageInstance(t, rng, 23, 8, 1.0/3))); firstNaN == 0 {
		t.Error("edgeOracle run never let the first-pair rule pick a NaN loss")
	}
	checkBatchAgainstFresh(t, rng, coverageInstance(t, rng, 30, 10, 1.0/3))
	det, _ := detectionInstance(t, rng, 30, 10, 0.5)
	checkBatchAgainstFresh(t, rng, det)
}

// evalInstance builds an instance over EvalOracle, which has neither
// the bulk contract nor an affected list, so the climb takes the
// per-row fill and the full refresh.
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

// checkClimbAgainstFresh runs a whole from-scratch climb over in step
// by step, filling its table as planClimb does (see
// checkRunAgainstFresh).
func checkClimbAgainstFresh(t *testing.T, in Instance) int {
	t.Helper()
	c, err := newClimb(in, ModeFor(in.Period), newAssignment(in.N))
	if err != nil {
		t.Fatal(err)
	}
	c.col = make([]float64, in.N)
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
// table against fresh oracles after the fill and after every step, and
// each step's choice against the dense scan — which must agree with the
// climb even on failing: where the scan finds no candidate, the step
// must return an error. Afterwards every pending sensor must be
// assigned. It returns how many steps picked a NaN marginal, which only
// removal's first-pair rule can do.
func checkRunAgainstFresh(t *testing.T, in Instance, c *climb, pending []int) (firstNaN int) {
	t.Helper()
	c.begin(pending)
	checkAgainstFresh(t, in, c)
	for step := range pending {
		want := denseScan(c)
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
		if math.IsNaN(want.value) {
			firstNaN++
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

// freshOracles rebuilds every slot's oracle from scratch by replaying
// the climb's assignment. In removal a slot holds every present sensor
// except those whose chosen passive slot it is; in placement, those
// whose active slot it is. Absent sensors are in no slot.
func freshOracles(in Instance, c *climb) []submodular.RemovalOracle {
	fresh := make([]submodular.RemovalOracle, len(c.oracles))
	for tt := range fresh {
		fresh[tt] = in.Factory()
		for v, a := range c.assign {
			if a != Absent && (a == tt) != c.removal {
				fresh[tt].Add(v)
			}
		}
	}
	return fresh
}

// checkMarginal fails unless got, what the climb holds for sensor v at
// slot tt, matches the fresh oracle's marginal: NaN must meet NaN,
// infinities must match exactly, and finite values within 1e-9, the
// drift of a different order of Adds.
func checkMarginal(t *testing.T, c *climb, fresh submodular.RemovalOracle, v, tt int, got float64, what string) {
	t.Helper()
	want := fresh.Gain(v)
	if c.removal {
		want = fresh.Loss(v)
	}
	if same := got == want || math.Abs(got-want) <= 1e-9 || math.IsNaN(got) && math.IsNaN(want); !same {
		t.Fatalf("%s[%d,%d] = %v (assigned %d), fresh recomputation %v", what, v, tt, got, c.assign[v], want)
	}
}

// checkAgainstFresh compares every unassigned pending row of the run's
// table against fresh oracles replaying the assignment.
func checkAgainstFresh(t *testing.T, in Instance, c *climb) {
	t.Helper()
	T := len(c.oracles)
	for tt, fresh := range freshOracles(in, c) {
		for i, v := range c.pending {
			if c.assign[v] == -1 {
				checkMarginal(t, c, fresh, v, tt, c.table[i*T+tt], "table")
			}
		}
	}
}

// checkIdleClimb holds a climb between runs — a Repairer between
// operations — to what it keeps: no live run, and slot oracles that
// answer every sensor's marginal as fresh oracles replaying its
// assignment do.
func checkIdleClimb(t *testing.T, in Instance, c *climb) {
	t.Helper()
	if c.pending != nil {
		t.Fatalf("climb holds a run over %d pending sensors between operations", len(c.pending))
	}
	for tt, fresh := range freshOracles(in, c) {
		for v := 0; v < in.N; v++ {
			checkMarginal(t, c, fresh, v, tt, c.marginal(v, tt), "oracle")
		}
	}
}

// edgeOracle wraps an oracle and overrides its marginals with the
// values that stress the winner tree: NaN, ±Inf, −1 and below, and
// exact ties. The override is a pure function of the sensor and the
// set's size, so a fresh oracle replaying the same set agrees bit for
// bit. A mutation can move every marginal, so it lists every sensor as
// affected and the climb's walk reports every unassigned row. A NaN
// loss depends on the set's size too, so once the slots' sets differ
// in size a sensor's loss can be NaN in some slots and finite in
// others — the case where the dense scan's first-pair rule holds in
// slot 0 only (see climb.best).
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
// lift each mutate one oracle, and a one-sensor refresh inside a run
// walks the affected list through the interface call into the climb's
// reused buffers and updates the rows it reports and their tree paths.
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
			pending := make([]int, in.N)
			for v := range pending {
				pending[v] = v
			}
			c.begin(pending)
			c.one[0] = 2
			if a := testing.AllocsPerRun(200, func() {
				c.commit(2, 1)
				c.refresh(1, c.one[:])
				c.lift(2, 1)
				c.refresh(1, c.one[:])
			}); a != 0 {
				t.Errorf("%s ρ=%v: commit+lift allocated %v times per run, want 0", name, rho, a)
			}
		}
	}
}
