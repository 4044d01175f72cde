package core

import (
	"fmt"
	"math"
	"slices"

	"cool/internal/submodular"
)

// climb is the cached greedy hill-climb behind every eager engine:
// Greedy and GreedySubset run one to completion, and the incremental
// Repairer keeps one alive to insert perturbation batches and sweep
// damage fronts. It holds the per-slot oracles (built by slotOracles),
// the assignment, and a margin cache kept bit-exact for every sensor —
// assigned, pending and absent alike — at every step of a run and
// between Repairer operations (a sweep queries the oracles and leaves
// the refresh to its caller):
//
//	cache[v][t] == oracles[t].Gain(v)  (placement)
//	cache[v][t] == oracles[t].Loss(v)  (removal)
//
// The paper's two regimes (Algorithm 1 and its Section IV-B dual) are
// the same climb run in two directions and differ in exactly two
// places, both held here: which oracle operation commits a sensor to a
// slot (commit), and which marginal wins (better, and the winner-tree
// leaves and combines).
//
// Selection is indexed. A run (see begin) builds one winner tree per
// slot column over its pending list: leaf i holds pending[i]'s cached
// marginal, and every inner node the better of its two children, so
// the root is the column's best pending sensor — the pick of a strict
// ascending scan of the column, ties to the lowest v. A step merges the
// T roots in O(T). Assigning a sensor kills its leaf in every tree, and
// a refresh re-derives only the leaves of the rows it rewrote (the
// walk's row report), then their ancestors level by level, each path
// ending at the first ancestor whose winner did not move: O(log P) per
// rewritten entry where a column rescan cost O(P).
//
// The climb owns the incidence work. Oracles that list the sensors a
// mutation can disturb (submodular.AffectedLister) get their columns
// refreshed by walk, which also yields the Repairer's damage fronts;
// other oracles get full-column fills.
type climb struct {
	oracles []submodular.RemovalOracle
	cache   *marginCache
	assign  []int
	removal bool

	// Run state, set by begin. pending is the run's ascending sensor
	// list and is never compacted: an assigned sensor keeps its leaf,
	// dead. left counts the still-unassigned sensors of pending, first
	// indexes the lowest of them (removal's first-pair rule, see
	// winner), and pending is nil between runs.
	pending     []int
	left, first int
	// size is each tree's leaf count, the least power of two ≥
	// len(pending); trees holds the T trees of 2·size nodes each, tree t
	// at trees[2·size·t:], root at index 1 and leaf i at size+i. The
	// Repairer's small batch runs reuse it; planClimb drops it after
	// the from-scratch plan.
	size  int
	trees []node
	// cands holds the per-column winners a step merges.
	cands []candidate
	// rows is the row report of the last walk; kill is the one-leaf
	// level of a single-path update; one is the changed list of a
	// single-sensor refresh; near holds one sensor's affected list
	// during a walk. All are reused, so no step allocates.
	rows []int32
	kill [1]int32
	one  [1]int
	near []int32
	// mark and epoch deduplicate a walk: mark[v] == epoch once the
	// current walk has reported v.
	mark  []uint32
	epoch uint32
}

// newClimb builds the slot oracles for assign under mode (slotOracles)
// and fills every cache column from them.
func newClimb(in Instance, mode Mode, assign []int) (*climb, error) {
	oracles, err := slotOracles(in, mode, assign)
	if err != nil {
		return nil, err
	}
	c := &climb{
		oracles: oracles,
		cache:   newMarginCache(in.N, len(oracles)),
		assign:  assign,
		removal: mode == ModeRemoval,
		cands:   make([]candidate, len(oracles)),
		mark:    make([]uint32, in.N),
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
	c.trees = nil // sized for the whole fleet; no later run needs it
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
// of the sensors in changed (each any number of times; a superset is
// harmless). With an AffectedLister oracle only the walk's rows are
// recomputed — O(affected) instead of O(n + edges). Every other entry
// sums over per-target state none of the mutations touched, so the
// column stays bit-identical to a full fill, and a run updates only
// those leaves of tree t. Other oracles get the full fill, and a run
// rebuilds tree t in O(P).
func (c *climb) refresh(t int, changed []int) {
	o, col := c.oracles[t], c.cache.column(t)
	al, ok := o.(submodular.AffectedLister)
	if !ok {
		c.fill(t)
		if c.pending != nil {
			c.build(t)
		}
		return
	}
	rows := c.walk(al, changed)
	if c.removal {
		for _, v := range rows {
			col[v] = o.Loss(int(v))
		}
	} else {
		for _, v := range rows {
			col[v] = o.Gain(int(v))
		}
	}
	c.reindex(t, rows)
}

// walk returns, each once and in no particular order, every sensor
// whose marginal a mutation of the sensors in changed can have moved:
// each changed sensor and the sensors of its affected list, fetched one
// list at a time. A sensor covering nothing is on no list, its own
// included, so the changed sensors are added explicitly. The report
// lives in c.rows until the next walk.
func (c *climb) walk(al submodular.AffectedLister, changed []int) []int32 {
	c.epoch++
	if c.epoch == 0 {
		clear(c.mark)
		c.epoch = 1
	}
	rows := c.rows[:0]
	for _, v := range changed {
		c.near = append(al.AppendAffected(c.near[:0], v), int32(v))
		for _, u := range c.near {
			if c.mark[u] != c.epoch {
				c.mark[u] = c.epoch
				rows = append(rows, u)
			}
		}
	}
	c.rows = rows
	return rows
}

// commit gives sensor v slot t in the oracles — adds v to t's active
// set (placement) or removes it, making t v's passive slot (removal).
// The assignment and the cache column are the caller's to update.
func (c *climb) commit(v, t int) {
	if c.removal {
		c.oracles[t].Remove(v)
	} else {
		c.oracles[t].Add(v)
	}
}

// lift undoes commit(v, t).
func (c *climb) lift(v, t int) {
	if c.removal {
		c.oracles[t].Add(v)
	} else {
		c.oracles[t].Remove(v)
	}
}

// marginal returns v's marginal on slot t's oracle: its gain, or its
// loss in removal.
func (c *climb) marginal(v, t int) float64 {
	if c.removal {
		return c.oracles[t].Loss(v)
	}
	return c.oracles[t].Gain(v)
}

// better reports whether marginal a strictly beats b: a larger gain in
// placement, a smaller loss in removal.
func (c *climb) better(a, b float64) bool {
	if c.removal {
		return a < b
	}
	return a > b
}

// admit returns the absent sensors of batch to the climb as pending,
// in the state a from-scratch plan starts its sensors from: unassigned
// and, in removal, a member of every slot, since the run picks the
// passive slot by Remove.
func (c *climb) admit(batch []int) {
	if c.removal {
		for _, v := range batch {
			for _, o := range c.oracles {
				o.Add(v)
			}
		}
		for t := range c.oracles {
			c.refresh(t, batch)
		}
	}
	for _, v := range batch {
		c.assign[v] = -1
	}
}

// run greedily assigns every sensor of pending — ascending, all
// unassigned, with exact cache entries — to a slot. Each step assigns
// one pending sensor, so len(pending) steps finish. pending is only
// read.
func (c *climb) run(pending []int) error {
	c.begin(pending)
	for c.left > 0 {
		if _, err := c.step(); err != nil {
			c.pending = nil
			return err
		}
	}
	c.pending = nil
	return nil
}

// begin starts a run over pending (ascending, all unassigned) and
// builds every column's winner tree, reusing the tree memory when it
// is large enough.
func (c *climb) begin(pending []int) {
	c.pending, c.left, c.first = pending, len(pending), 0
	c.size = 1
	for c.size < len(pending) {
		c.size *= 2
	}
	if n := 2 * c.size * len(c.oracles); cap(c.trees) >= n {
		c.trees = c.trees[:n]
	} else {
		c.trees = make([]node, n)
	}
	for t := range c.oracles {
		c.build(t)
	}
}

// tree returns slot t's winner tree.
func (c *climb) tree(t int) []node {
	return c.trees[2*c.size*t : 2*c.size*(t+1)]
}

// leaf returns the regime's leaf for marginal m of unassigned sensor
// v; leaf(NaN, noSensor) is the dead leaf of an assigned sensor or of
// the padding past the end of pending.
func (c *climb) leaf(m float64, v int32) node {
	if c.removal {
		return minLeaf(m, v)
	}
	return maxLeaf(m, v)
}

// build derives every leaf of slot t's tree from its cache column and
// then every inner node, bottom up, in O(size).
func (c *climb) build(t int) {
	tr, col := c.tree(t), c.cache.column(t)
	for i := 0; i < c.size; i++ {
		m, v := math.NaN(), noSensor
		if i < len(c.pending) && c.assign[c.pending[i]] == -1 {
			v = int32(c.pending[i])
			m = col[v]
		}
		tr[c.size+i] = c.leaf(m, v)
	}
	if c.removal {
		for i := c.size - 1; i > 0; i-- {
			minNode(tr, i)
		}
		return
	}
	for i := c.size - 1; i > 0; i-- {
		maxNode(tr, i)
	}
}

// leafOf returns the leaf index of sensor v and whether v is in the
// run's pending list: its offset from pending[0] when pending runs
// contiguously up to v — always, in a from-scratch plan of the whole
// fleet — else a binary search, pending being ascending.
func (c *climb) leafOf(v int) (int, bool) {
	if i := v - c.pending[0]; uint(i) < uint(len(c.pending)) && c.pending[i] == v {
		return i, true
	}
	return slices.BinarySearch(c.pending, v)
}

// reindex re-derives the leaves of slot t's tree for the sensors in
// rows — a refresh's row report, each sensor once — and their
// ancestors. Only the run's unassigned sensors have a leaf that can
// move: an assigned sensor's leaf is already dead, and sensors outside
// pending (absent, or assigned before the run) have none. Between runs
// there is no tree. rows is rewritten in place as the update's first
// level.
func (c *climb) reindex(t int, rows []int32) {
	if c.pending == nil {
		return
	}
	tr, col := c.tree(t), c.cache.column(t)
	level := rows[:0]
	for _, v := range rows {
		if c.assign[v] != -1 {
			continue
		}
		i, ok := c.leafOf(int(v))
		if l := c.leaf(col[v], v); ok && !l.same(tr[c.size+i]) {
			tr[c.size+i] = l
			level = append(level, int32(c.size+i))
		}
	}
	c.propagate(tr, level)
}

// propagate brings the ancestors of the changed nodes in level, all at
// one depth, up to date, one level at a time: each pass recomputes the
// parent of every changed node and queues the parents whose winner
// moved, so a path ends at the first ancestor that comes out unchanged
// and every queued node is queued once. A parent of two changed
// children is recomputed twice; the second pass finds it current.
// level is rewritten in place.
func (c *climb) propagate(tr []node, level []int32) {
	for len(level) > 0 && level[0] > 1 {
		next := level[:0]
		if c.removal {
			for _, i := range level {
				if p := i >> 1; minNode(tr, int(p)) {
					next = append(next, p)
				}
			}
		} else {
			for _, i := range level {
				if p := i >> 1; maxNode(tr, int(p)) {
					next = append(next, p)
				}
			}
		}
		level = next
	}
}

// winner returns slot t's best pending candidate: the tree's root, or
// none when no leaf is eligible. Removal adds the first-pair rule of
// the dense scan (ReferenceGreedy): it starts from (lowest pending
// sensor, slot 0) whatever that loss and replaces it only on a strictly
// smaller one, so a NaN there is never displaced and wins. The rule
// holds for slot 0 alone: a NaN loss of that sensor in a later slot is
// skipped like any other NaN and must not hide the column's minimum.
func (c *climb) winner(t int) candidate {
	if c.removal && t == 0 && c.first < len(c.pending) {
		if v := c.pending[c.first]; math.IsNaN(c.cache.at(v, t)) {
			return candidate{v: v, t: t, value: c.cache.at(v, t)}
		}
	}
	root := c.tree(t)[1]
	if root.v < 0 {
		return candidate{v: -1, t: -1}
	}
	return candidate{v: int(root.v), t: t, value: root.value}
}

// best returns the best pending (sensor, slot) pair — the choice of
// the eager O(n·T) scan of ReferenceGreedy, ties to the lowest (v, t).
// Each column's winner is the pick of a strict ascending scan over that
// column's pending sensors, and the merge compares (value, v) across
// columns in ascending t, so the result is bit-identical to the dense
// scan on every cache, NaN and ±Inf included.
func (c *climb) best() candidate {
	if c.removal {
		for c.first < len(c.pending) && c.assign[c.pending[c.first]] >= 0 {
			c.first++
		}
	}
	for t := range c.cands {
		c.cands[t] = c.winner(t)
	}
	if c.removal {
		return bestOfColumnsMin(c.cands)
	}
	return bestOfColumnsMax(c.cands)
}

// step commits the best pending pair and returns it.
func (c *climb) step() (candidate, error) {
	best := c.best()
	if best.v < 0 {
		return best, fmt.Errorf("core: greedy found no candidate with %d sensors pending", c.left)
	}
	c.retire(best.v, best.t)
	c.commit(best.v, best.t)
	c.one[0] = best.v
	c.refresh(best.t, c.one[:])
	return best, nil
}

// retire assigns the run's pending sensor v to slot t and kills its
// leaf in every tree. The commit that follows updates the committed
// column's other rewritten leaves through its refresh.
func (c *climb) retire(v, t int) {
	c.assign[v] = t
	c.left--
	i, _ := c.leafOf(v)
	i += c.size
	for col := range c.cands {
		tr := c.tree(col)
		tr[i] = c.leaf(math.NaN(), noSensor)
		c.kill[0] = int32(i)
		c.propagate(tr, c.kill[:])
	}
}

// Sweep runs the Repairer's strict-improvement sweep over sensors,
// ascending, against assign — a complete plan of in, updated in place —
// and returns the rounds run and the moves applied: each round lifts
// every assigned sensor of sensors out of its slot and recommits it at
// the slot of the strictly best marginal, ties keeping the current
// slot, until a round moves nothing or DefaultRepairRounds rounds ran.
// It builds in's slot oracles for assign once (none when sensors is
// empty). The sharded planner repairs its border with it.
func Sweep(in Instance, assign, sensors []int) (rounds, moves int, err error) {
	if len(sensors) == 0 {
		return 0, 0, nil
	}
	mode := ModeFor(in.Period)
	oracles, err := slotOracles(in, mode, assign)
	if err != nil {
		return 0, 0, err
	}
	c := &climb{oracles: oracles, assign: assign, removal: mode == ModeRemoval}
	rounds, moves = c.sweep(sensors)
	return rounds, moves, nil
}

// DefaultRepairRounds bounds the strict-improvement sweep: each round
// strictly improves utility, and in practice the hill-climb is at a
// fixed point after one or two rounds; the bound keeps a pathological
// tie structure from looping.
const DefaultRepairRounds = 4

// sweep runs strict-improvement rounds over sensors, ascending, until
// a round moves nothing or DefaultRepairRounds rounds ran, and returns
// the rounds run and the moves applied. A round lifts each assigned
// sensor out of its slot and recommits it at the slot of the strictly
// best marginal — the largest gain in placement, the smallest loss in
// removal, which picks the passive slot — with ties keeping the current
// slot, so every move strictly raises the period utility and the sweep
// is a monotone hill-climb that cannot shuttle between tied slots. The
// marginals are queried from the oracles and no cache column is
// refreshed: the caller refreshes every column once afterwards, over
// the swept sensors.
func (c *climb) sweep(sensors []int) (rounds, moves int) {
	if len(sensors) == 0 {
		return 0, 0
	}
	for rounds < DefaultRepairRounds {
		m := c.sweepOnce(sensors)
		rounds++
		moves += m
		if m == 0 {
			break
		}
	}
	return rounds, moves
}

// sweepOnce runs one round of sweep and returns its moves. Unassigned
// and absent sensors are skipped.
func (c *climb) sweepOnce(sensors []int) int {
	moves := 0
	for _, v := range sensors {
		old := c.assign[v]
		if old < 0 {
			continue
		}
		// v's marginal back at the old slot is the bar to beat strictly.
		c.lift(v, old)
		bestT, bestM := old, c.marginal(v, old)
		for t := range c.oracles {
			if t == old {
				continue
			}
			if m := c.marginal(v, t); c.better(m, bestM) {
				bestT, bestM = t, m
			}
		}
		c.commit(v, bestT)
		if bestT != old {
			c.assign[v] = bestT
			moves++
		}
	}
	return moves
}
