package core

import (
	"fmt"

	"cool/internal/submodular"
)

// climb is the cached greedy hill-climb behind every eager engine:
// Greedy and GreedySubset run one to completion, and the incremental
// Repairer keeps one alive to insert perturbation batches and sweep
// damage fronts. It holds the per-slot oracles (built by SlotOracles),
// the assignment, and a margin cache kept bit-exact for every sensor —
// assigned, pending and absent alike:
//
//	cache[v][t] == oracles[t].Gain(v)  (placement)
//	cache[v][t] == oracles[t].Loss(v)  (removal)
//
// The paper's two regimes (Algorithm 1 and its Section IV-B dual) are
// the same climb run in two directions and differ in exactly two
// places, both held here: which oracle operation commits a sensor to a
// slot (commit), and which marginal wins (better, and the column scans
// in best and step).
type climb struct {
	oracles []submodular.RemovalOracle
	cache   *marginCache
	assign  []int
	removal bool

	// pending (ascending, all unassigned) and colBest (one best pending
	// candidate per column) are the state of the current run.
	pending []int
	colBest []candidate
	// one is the changed list of a single-sensor refresh; a field, so
	// handing it to the sparse-refresh interface call does not allocate.
	one [1]int
}

// newClimb builds the slot oracles for assign under mode (SlotOracles)
// and fills every cache column from them.
func newClimb(in Instance, mode Mode, assign []int) (*climb, error) {
	oracles, err := SlotOracles(in, mode, assign)
	if err != nil {
		return nil, err
	}
	c := &climb{
		oracles: oracles,
		cache:   newMarginCache(in.N, len(oracles)),
		assign:  assign,
		removal: mode == ModeRemoval,
		colBest: make([]candidate, len(oracles)),
	}
	for t := range oracles {
		c.fill(t)
	}
	return c, nil
}

// planClimb runs the greedy over the sensors with present[v] set
// (every sensor when present is nil) and returns the finished climb.
// Absent sensors get the Absent assignment and never enter an oracle.
// It is the one from-scratch plan: Greedy, GreedySubset, the
// Repairer's initial plan and its ρ-update rebuild.
func planClimb(in Instance, present []bool) (*climb, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if present != nil && len(present) != in.N {
		return nil, fmt.Errorf("core: present covers %d sensors, instance has %d", len(present), in.N)
	}
	assign := newAssignment(in.N)
	pending := make([]int, 0, in.N)
	for v := range assign {
		if present == nil || present[v] {
			pending = append(pending, v)
		} else {
			assign[v] = Absent
		}
	}
	c, err := newClimb(in, ModeFor(in.Period), assign)
	if err != nil {
		return nil, err
	}
	if err := c.run(pending); err != nil {
		return nil, err
	}
	return c, nil
}

// mode returns the climb's regime.
func (c *climb) mode() Mode {
	if c.removal {
		return ModeRemoval
	}
	return ModePlacement
}

// schedule materializes the climb's assignment.
func (c *climb) schedule() (*Schedule, error) {
	return NewSchedule(c.mode(), len(c.oracles), c.assign)
}

// fill recomputes slot t's whole cache column.
func (c *climb) fill(t int) {
	fillMarginals(c.oracles[t], c.removal, c.cache.column(t))
}

// fillMarginals writes every sensor's marginal on o into col — its
// gain, or its loss when removal is set. Oracles with the bulk contract
// (submodular.BulkGainer / BulkLosser) write the column in one
// target-major sweep, others answer per-sensor Gain/Loss queries; the
// bulk contract makes the two paths bit-identical.
func fillMarginals(o submodular.RemovalOracle, removal bool, col []float64) {
	if removal {
		if b, ok := o.(submodular.BulkLosser); ok {
			b.BulkLoss(col)
			return
		}
		for v := range col {
			col[v] = o.Loss(v)
		}
		return
	}
	if b, ok := o.(submodular.BulkGainer); ok {
		b.BulkGain(col)
		return
	}
	for v := range col {
		col[v] = o.Gain(v)
	}
}

// refresh restores slot t's column after its oracle absorbed mutations
// of the sensors in changed (a superset is harmless). Oracles with the
// column-sparse contract (submodular.SparseGainBatchRefresher /
// SparseLossBatchRefresher) recompute only the sensors sharing a
// target with a changed sensor — O(affected) instead of O(n + edges) —
// and the contract keeps the column bit-identical to a full fill.
// Other oracles get the full fill.
func (c *climb) refresh(t int, changed []int) {
	o, col := c.oracles[t], c.cache.column(t)
	if c.removal {
		if sr, ok := o.(submodular.SparseLossBatchRefresher); ok {
			sr.SparseLossRefreshAll(changed, col)
			return
		}
	} else if sr, ok := o.(submodular.SparseGainBatchRefresher); ok {
		sr.SparseGainRefreshAll(changed, col)
		return
	}
	c.fill(t)
}

// commit gives sensor v slot t — adds v to t's active set (placement)
// or removes it, making t v's passive slot (removal) — and refreshes
// the column. The assignment is the caller's to update.
func (c *climb) commit(v, t int) {
	if c.removal {
		c.oracles[t].Remove(v)
	} else {
		c.oracles[t].Add(v)
	}
	c.one[0] = v
	c.refresh(t, c.one[:])
}

// lift undoes commit(v, t).
func (c *climb) lift(v, t int) {
	if c.removal {
		c.oracles[t].Add(v)
	} else {
		c.oracles[t].Remove(v)
	}
	c.one[0] = v
	c.refresh(t, c.one[:])
}

// better reports whether marginal a strictly beats b: a larger gain in
// placement, a smaller loss in removal.
func (c *climb) better(a, b float64) bool {
	if c.removal {
		return a < b
	}
	return a > b
}

// best returns slot t's best candidate among pending. The two scans
// stay separate functions so the compiler inlines both here.
func (c *climb) best(t int, pending []int) candidate {
	if c.removal {
		return c.cache.argminColumn(t, pending)
	}
	return c.cache.argmaxColumn(t, pending)
}

// run greedily assigns every sensor of pending — ascending, all
// unassigned, with exact cache entries — to a slot, consuming pending.
// Each step assigns one pending sensor, so len(pending) steps finish.
func (c *climb) run(pending []int) error {
	c.begin(pending)
	for steps := len(pending); steps > 0; steps-- {
		if _, err := c.step(); err != nil {
			return err
		}
	}
	return nil
}

// begin starts a run over pending, recording each column's best
// candidate.
func (c *climb) begin(pending []int) {
	c.pending = pending
	for t := range c.colBest {
		c.colBest[t] = c.best(t, pending)
	}
}

// step commits the best pending (sensor, slot) pair — the choice of
// the eager O(n·T) scan of ReferenceGreedy, ties to the lowest (v, t) —
// and returns it. Only two kinds of column can change their best
// candidate: the committed column, whose marginals moved, and columns
// whose best was the committed sensor, which has left pending; both
// are exactly the columns whose recorded best is that sensor. Every
// other column keeps its candidate: dropping a sensor that is not a
// column's recorded best never changes that column's strict scan (an
// equal-valued lower-v sensor would have been recorded instead), so
// the result stays bit-identical to the full rescan.
func (c *climb) step() (candidate, error) {
	var best candidate
	if c.removal {
		best = bestOfColumnsMin(c.colBest)
	} else {
		best = bestOfColumnsMax(c.colBest)
	}
	if best.v < 0 {
		return best, fmt.Errorf("core: greedy found no candidate with %d sensors pending", len(c.pending))
	}
	c.assign[best.v] = best.t
	c.commit(best.v, best.t)
	c.pending = dropPending(c.pending, best.v)
	for t := range c.colBest {
		if c.colBest[t].v == best.v {
			c.colBest[t] = c.best(t, c.pending)
		}
	}
	return best, nil
}
