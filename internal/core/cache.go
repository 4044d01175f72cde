package core

import "math"

// marginCache caches the marginal utility of every (sensor, slot) pair
// against the current per-slot oracle states: gains (U(S∪{v})−U(S)) for
// the placement greedy, losses (U(S)−U(S∖{v})) for the removal greedy.
//
// Dirty-slot invariant: a greedy step mutates exactly one slot's oracle
// (the slot that received the Add or Remove). Oracles of every other
// slot are untouched, so their cached marginals remain *exactly* equal
// to what a fresh query would return — no submodular upper/lower-bound
// argument is needed, the values simply cannot have changed. Refreshing
// the single dirty column costs at most O(n) oracle calls — only the
// affected sensors' when the oracle lists them (the climb's walk) —
// instead of the O(n·T) of the seed's ReferenceGreedy. Selection does not scan the
// cache: the climb indexes each column with a winner tree (see climb).
type marginCache struct {
	n, T int
	// vals[t*n+v] is the cached marginal of sensor v at slot t.
	vals []float64
}

func newMarginCache(n, T int) *marginCache {
	return &marginCache{n: n, T: T, vals: make([]float64, n*T)}
}

// at returns the cached marginal of (v, t).
func (c *marginCache) at(v, t int) float64 { return c.vals[t*c.n+v] }

// column returns slot t's whole cache column as a mutable slice — the
// buffer the bulk marginal fast path (submodular.BulkGainer /
// BulkLosser) and the climb's refresh write into directly.
func (c *marginCache) column(t int) []float64 { return c.vals[t*c.n : (t+1)*c.n] }

// candidate is one (sensor, slot, marginal) selection result. v < 0
// means "no candidate".
type candidate struct {
	v, t  int
	value float64
}

// node is one winner-tree node (see climb): the winning sensor v of
// its subtree and that sensor's cached marginal. v is noSensor when no
// leaf below is eligible.
type node struct {
	value float64
	v     int32
}

// noSensor marks a subtree without an eligible pending sensor.
const noSensor int32 = -1

// same reports whether a and b hold the same winner with the same
// marginal bits (== would equate −0 and +0).
func (a node) same(b node) bool {
	return a.v == b.v && math.Float64bits(a.value) == math.Float64bits(b.value)
}

// maxLeaf is placement's leaf for marginal m of pending sensor v: only
// m > −1 competes, the floor the strict scan starts from, so a NaN, a
// gain at or below −1, and a dead leaf (v = noSensor, m = NaN) all
// become the floor node, which every eligible leaf strictly beats.
func maxLeaf(m float64, v int32) node {
	if m > -1 {
		return node{value: m, v: v}
	}
	return node{value: -1, v: noSensor}
}

// maxNode recomputes inner node i of a placement tree from its two
// children and reports whether its winner moved: the right child wins
// only with a strictly larger gain, so ties go to the left subtree —
// the lower sensor IDs.
func maxNode(tr []node, i int) bool {
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

// minLeaf is removal's leaf for marginal m of pending sensor v: every
// loss but NaN competes, ±Inf included. NaN losses and dead leaves
// become noSensor; the first-pair rule that lets a NaN win slot 0 is
// applied at the root (climb.winner), not in the tree.
func minLeaf(m float64, v int32) node {
	if m == m {
		return node{value: m, v: v}
	}
	return node{value: math.Inf(1), v: noSensor}
}

// minNode is the removal dual of maxNode: the right child wins when
// the left subtree is empty or on a strictly smaller loss. The explicit
// empty test keeps an eligible +Inf loss ahead of an empty left
// subtree.
func minNode(tr []node, i int) bool {
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

// bestOfColumnsMax merges per-column argmax candidates into the global
// best with the full lexicographic tie-break of a single (v-major,
// t-minor) scan: maximum value, ties to the lowest sensor, then to the
// lowest slot. Each per-column candidate already carries the lowest v
// of its column's maxima, so comparing (value, v) across columns in
// ascending t order — replacing only on strictly greater value or on
// equal value with strictly lower v — reproduces the global scan's
// choice exactly.
func bestOfColumnsMax(cols []candidate) candidate {
	best := candidate{v: -1, t: -1, value: -1}
	for _, c := range cols {
		if c.v < 0 {
			continue
		}
		if c.value > best.value || (c.value == best.value && c.v < best.v) {
			best = c
		}
	}
	return best
}

// bestOfColumnsMin is the removal-mode dual of bestOfColumnsMax.
func bestOfColumnsMin(cols []candidate) candidate {
	best := candidate{v: -1, t: -1}
	found := false
	for _, c := range cols {
		if c.v < 0 {
			continue
		}
		if !found || c.value < best.value || (c.value == best.value && c.v < best.v) {
			best = c
			found = true
		}
	}
	return best
}
