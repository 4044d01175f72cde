package core

import (
	"fmt"
	"math"
	"slices"

	"cool/internal/submodular"
)

// climb is the greedy hill-climb behind every eager engine: Greedy and
// GreedySubset run one to completion, and the incremental Repairer
// keeps one to insert perturbation batches and sweep damage fronts. It
// holds the per-slot oracles (built by slotOracles), the assignment and
// the regime. Everything selection needs lives for one run (see begin)
// and goes with it: a from-scratch plan drops it, and a Repairer keeps
// only what its last batch used, so between operations a climb is its
// oracles and its assignment.
//
// The paper's two regimes (Algorithm 1 and its Section IV-B dual) are
// the same climb run in two directions and differ in exactly two
// places, both held here: which oracle operation commits a sensor to a
// slot (commit), and which marginal wins (better, and the winner
// tree's leaves and combines).
//
// Selection is indexed. A run keeps the marginals of its pending
// sensors in a row-major table, exact for every unassigned row:
//
//	table[i·T+t] == oracles[t].Gain(pending[i])  (placement)
//	table[i·T+t] == oracles[t].Loss(pending[i])  (removal)
//
// and one winner tree over the rows: leaf i holds row i's best slot,
// the pick of a strict scan of the row in ascending t, and every inner
// node the better of its two children, so the root is the dense
// v-major scan's lowest-(v, t) pick. A step commits the root, kills its
// leaf along one path, and refreshes the committed slot's column: only
// the unassigned rows the walk reports are recomputed and rescanned,
// then their ancestors level by level, each path ending at the first
// ancestor whose winner did not move.
//
// The climb owns the incidence work. Oracles that list the sensors a
// mutation can disturb (submodular.AffectedLister) get only the walk's
// rows refreshed, and the same lists give the Repairer its damage
// fronts; other oracles get every unassigned row recomputed.
type climb struct {
	oracles []submodular.RemovalOracle
	assign  []int
	removal bool

	// Run state, set by begin. pending is the run's ascending sensor
	// list and is never compacted: an assigned sensor keeps its row and
	// its leaf, dead. left counts the still-unassigned sensors of
	// pending, first indexes the lowest of them (removal's first-pair
	// rule, see best), and pending is nil between runs.
	pending     []int
	left, first int
	// table holds T marginals per pending row (above). size is the
	// tree's leaf count, the least power of two ≥ len(pending); tree
	// has 2·size nodes, root at index 1 and leaf i at size+i. mark and
	// epoch deduplicate a walk by row: mark[i] == epoch once the current
	// walk has reported row i. col is the n-entry column a from-scratch
	// plan's bulk sweeps write; a Repairer batch has none and queries
	// its rows. planClimb drops all four; a Repairer's batch runs reuse
	// theirs.
	table []float64
	size  int
	tree  []candidate
	mark  []uint32
	epoch uint32
	col   []float64
	// rows is the row report of the last walk; kill is the one-leaf
	// level of a retire; one is the changed list of a step's refresh;
	// near holds the affected lists of a walk or a damage front. All
	// are reused, so no step allocates.
	rows []int32
	kill [1]int32
	one  [1]int
	near []int32
}

// candidate is one (sensor, slot, marginal) pick and a winner-tree
// node, the winner of its subtree. v is noSensor when there is none.
type candidate struct {
	value float64
	v, t  int32
}

// noSensor marks an empty pick.
const noSensor int32 = -1

// same reports whether a and b are the same pick with the same
// marginal bits (== would equate −0 and +0).
func (a candidate) same(b candidate) bool {
	return a.v == b.v && a.t == b.t && math.Float64bits(a.value) == math.Float64bits(b.value)
}

// newClimb builds the slot oracles for assign under mode (slotOracles).
func newClimb(in Instance, mode Mode, assign []int) (*climb, error) {
	oracles, err := slotOracles(in, mode, assign)
	if err != nil {
		return nil, err
	}
	return &climb{oracles: oracles, assign: assign, removal: mode == ModeRemoval}, nil
}

// planClimb runs the greedy over the sensors with present[v] set
// (every sensor when present is nil) and returns the finished climb.
// Absent sensors get the Absent assignment and never enter an oracle.
// It is the one from-scratch plan: Greedy, GreedySubset, the
// Repairer's initial plan and its ρ-update rebuild. The run fills its
// table with one bulk sweep per slot, and its state, sized for the
// whole fleet, is dropped when it ends.
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
	c.col = make([]float64, in.N)
	err = c.run(pending)
	c.table, c.tree, c.mark, c.col = nil, nil, nil, nil
	if err != nil {
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

// fill writes slot t's marginal into every unassigned row of the table:
// from one bulk sweep into col when the run has that column and the
// oracle the bulk contract (submodular.BulkGainer / BulkLosser, which
// makes the sweep bit-identical to per-sensor queries), else by one
// Gain or Loss query per row.
func (c *climb) fill(t int) {
	T, o := len(c.oracles), c.oracles[t]
	bulk := c.col != nil
	if b, ok := o.(submodular.BulkLosser); bulk && ok && c.removal {
		b.BulkLoss(c.col)
	} else if b, ok := o.(submodular.BulkGainer); bulk && ok && !c.removal {
		b.BulkGain(c.col)
	} else {
		bulk = false
	}
	for i, v := range c.pending {
		if c.assign[v] != -1 {
			continue
		}
		if bulk {
			c.table[i*T+t] = c.col[v]
		} else {
			c.table[i*T+t] = c.marginal(v, t)
		}
	}
}

// refresh restores slot t's column of the table, and the tree, after
// its oracle absorbed mutations of the sensors in changed (each any
// number of times; a superset is harmless). With an AffectedLister
// oracle only the unassigned rows the walk reports are recomputed and
// rescanned — O(affected) instead of O(P): every other entry sums over
// per-target state none of the mutations touched, so it is
// bit-identical to a fresh query. Other oracles get every unassigned
// row recomputed and the tree rebuilt.
func (c *climb) refresh(t int, changed []int) {
	al, ok := c.oracles[t].(submodular.AffectedLister)
	if !ok {
		c.fill(t)
		c.build()
		return
	}
	T := len(c.oracles)
	rows := c.walk(al, changed)
	level := rows[:0]
	for _, i := range rows {
		c.table[int(i)*T+t] = c.marginal(c.pending[i], t)
		if l := c.leaf(int(i)); !l.same(c.tree[c.size+int(i)]) {
			c.tree[c.size+int(i)] = l
			level = append(level, int32(c.size)+i)
		}
	}
	c.propagate(level)
}

// affected returns, with repeats and in no particular order, every
// sensor whose marginal a mutation of the sensors in changed can have
// moved: each changed sensor and the sensors of its affected list. A
// sensor covering nothing is on no list, its own included, so the
// changed sensors are added explicitly. The list lives in c.near until
// the next call.
func (c *climb) affected(al submodular.AffectedLister, changed []int) []int32 {
	near := c.near[:0]
	for _, v := range changed {
		near = append(al.AppendAffected(near, v), int32(v))
	}
	c.near = near
	return near
}

// walk returns, each once and in no particular order, the row of every
// unassigned pending sensor among the affected sensors of changed. The
// report lives in c.rows until the next walk.
func (c *climb) walk(al submodular.AffectedLister, changed []int) []int32 {
	c.epoch++
	if c.epoch == 0 {
		clear(c.mark)
		c.epoch = 1
	}
	rows := c.rows[:0]
	for _, u := range c.affected(al, changed) {
		if c.assign[u] != -1 {
			continue
		}
		if i, ok := c.leafOf(int(u)); ok && c.mark[i] != c.epoch {
			c.mark[i] = c.epoch
			rows = append(rows, int32(i))
		}
	}
	c.rows = rows
	return rows
}

// commit gives sensor v slot t in the oracles — adds v to t's active
// set (placement) or removes it, making t v's passive slot (removal).
// The assignment and the run's table are the caller's to update.
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
	for _, v := range batch {
		if c.removal {
			for _, o := range c.oracles {
				o.Add(v)
			}
		}
		c.assign[v] = -1
	}
}

// run greedily assigns every sensor of pending — ascending, all
// unassigned — to a slot. Each step assigns one pending sensor, so
// len(pending) steps finish. pending is only read.
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

// begin starts a run over pending (ascending, all unassigned): it
// sizes the table, the tree and the marks, reusing their memory when it
// is large enough, fills every column and builds the tree.
func (c *climb) begin(pending []int) {
	c.pending, c.left, c.first = pending, len(pending), 0
	c.size = 1
	for c.size < len(pending) {
		c.size *= 2
	}
	c.table = resize(c.table, len(pending)*len(c.oracles))
	c.tree = resize(c.tree, 2*c.size)
	c.mark = resize(c.mark, len(pending))
	clear(c.mark)
	for t := range c.oracles {
		c.fill(t)
	}
	c.build()
}

// resize returns s with n elements, in its own memory when that holds
// them.
func resize[E any](s []E, n int) []E {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]E, n)
}

// dead returns the regime's dead leaf, which every eligible leaf beats:
// the −1 floor in placement, and in removal +Inf, which minNode's empty
// test passes over.
func (c *climb) dead() candidate {
	if c.removal {
		return candidate{value: math.Inf(1), v: noSensor, t: -1}
	}
	return candidate{value: -1, v: noSensor, t: -1}
}

// leaf returns row i's leaf: the row's best slot by a strict scan in
// ascending t, the dense scan's order within a sensor. In placement it
// is the largest gain above the −1 floor that scan starts from, so NaN
// and gains at or below −1 never win; in removal the smallest loss that
// is not NaN, ±Inf included (the first-pair rule that lets a NaN win is
// applied at the root, see best). An assigned sensor, a row without an
// eligible slot and the padding past the end of pending get the dead
// leaf.
func (c *climb) leaf(i int) candidate {
	best := c.dead()
	if i >= len(c.pending) || c.assign[c.pending[i]] != -1 {
		return best
	}
	T, v := len(c.oracles), int32(c.pending[i])
	row := c.table[i*T : (i+1)*T]
	if c.removal {
		for t, m := range row {
			if m == m && (best.v < 0 || m < best.value) {
				best = candidate{value: m, v: v, t: int32(t)}
			}
		}
		return best
	}
	for t, m := range row {
		if m > best.value {
			best = candidate{value: m, v: v, t: int32(t)}
		}
	}
	return best
}

// build derives every leaf from its table row and then every inner
// node, bottom up, in O(size·T).
func (c *climb) build() {
	for i := 0; i < c.size; i++ {
		c.tree[c.size+i] = c.leaf(i)
	}
	if c.removal {
		for i := c.size - 1; i > 0; i-- {
			minNode(c.tree, i)
		}
		return
	}
	for i := c.size - 1; i > 0; i-- {
		maxNode(c.tree, i)
	}
}

// maxNode recomputes inner node i of a placement tree from its two
// children and reports whether its winner moved: the right child wins
// only with a strictly larger gain, so ties go to the left subtree —
// the lower sensor IDs.
func maxNode(tr []candidate, i int) bool {
	w := tr[2*i]
	if r := tr[2*i+1]; r.value > w.value {
		w = r
	}
	if w.same(tr[i]) {
		return false
	}
	tr[i] = w
	return true
}

// minNode is the removal dual of maxNode: the right child wins when
// the left subtree is empty or on a strictly smaller loss. The explicit
// empty test keeps an eligible +Inf loss ahead of an empty left
// subtree.
func minNode(tr []candidate, i int) bool {
	w := tr[2*i]
	if r := tr[2*i+1]; w.v < 0 || r.value < w.value {
		w = r
	}
	if w.same(tr[i]) {
		return false
	}
	tr[i] = w
	return true
}

// leafOf returns the row of sensor v and whether v is in the run's
// pending list: its offset from pending[0] when pending runs
// contiguously up to v — always, in a from-scratch plan of the whole
// fleet — else a binary search, pending being ascending.
func (c *climb) leafOf(v int) (int, bool) {
	if i := v - c.pending[0]; uint(i) < uint(len(c.pending)) && c.pending[i] == v {
		return i, true
	}
	return slices.BinarySearch(c.pending, v)
}

// propagate brings the ancestors of the changed nodes in level, all at
// one depth, up to date, one level at a time: each pass recomputes the
// parent of every changed node and queues the parents whose winner
// moved, so a path ends at the first ancestor that comes out unchanged
// and every queued node is queued once. A parent of two changed
// children is recomputed twice; the second pass finds it current.
// level is rewritten in place.
func (c *climb) propagate(level []int32) {
	for len(level) > 0 && level[0] > 1 {
		next := level[:0]
		if c.removal {
			for _, i := range level {
				if p := i >> 1; minNode(c.tree, int(p)) {
					next = append(next, p)
				}
			}
		} else {
			for _, i := range level {
				if p := i >> 1; maxNode(c.tree, int(p)) {
					next = append(next, p)
				}
			}
		}
		level = next
	}
}

// best returns the best pending (sensor, slot) pair — the choice of
// the eager O(n·T) scan of ReferenceGreedy, ties to the lowest (v, t) —
// or an empty pick: the tree's root, bit-identical to the dense scan on
// every table, NaN and ±Inf included. Removal adds the dense scan's
// first-pair rule: it starts from (lowest pending sensor, slot 0)
// whatever that loss and replaces it only on a strictly smaller one, so
// a NaN there is never displaced and wins. The rule holds for that pair
// alone: a NaN loss in a later slot is skipped like any other and must
// not hide the row's minimum, so the leaves skip every NaN and the
// rule is applied here.
func (c *climb) best() candidate {
	if c.removal {
		for c.first < len(c.pending) && c.assign[c.pending[c.first]] >= 0 {
			c.first++
		}
		if c.first < len(c.pending) {
			if m := c.table[c.first*len(c.oracles)]; m != m {
				return candidate{value: m, v: int32(c.pending[c.first]), t: 0}
			}
		}
	}
	return c.tree[1]
}

// step commits the best pending pair and returns it.
func (c *climb) step() (candidate, error) {
	best := c.best()
	if best.v < 0 {
		return best, fmt.Errorf("core: greedy found no candidate with %d sensors pending", c.left)
	}
	v, t := int(best.v), int(best.t)
	c.retire(v, t)
	c.commit(v, t)
	c.one[0] = v
	c.refresh(t, c.one[:])
	return best, nil
}

// retire assigns the run's pending sensor v to slot t and kills its
// leaf. The commit that follows updates the rows its refresh rewrites.
func (c *climb) retire(v, t int) {
	c.assign[v] = t
	c.left--
	i, _ := c.leafOf(v)
	c.tree[c.size+i] = c.dead()
	c.kill[0] = int32(c.size + i)
	c.propagate(c.kill[:])
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
	c, err := newClimb(in, ModeFor(in.Period), assign)
	if err != nil {
		return 0, 0, err
	}
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
// marginals are queried from the oracles; a sweep keeps no table.
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
