package core

// marginCache caches the marginal utility of every (sensor, slot) pair
// against the current per-slot oracle states: gains (U(S∪{v})−U(S)) for
// the placement greedy, losses (U(S)−U(S∖{v})) for the removal greedy.
//
// Dirty-slot invariant: a greedy step mutates exactly one slot's oracle
// (the slot that received the Add or Remove). Oracles of every other
// slot are untouched, so their cached marginals remain *exactly* equal
// to what a fresh query would return — no submodular upper/lower-bound
// argument is needed, the values simply cannot have changed. Refreshing
// the single dirty column costs O(n) oracle calls, dropping the greedy
// hill-climb from O(n·T) oracle calls per step (the seed's
// ReferenceGreedy) to O(n), while the argmax/argmin selection becomes a
// pure O(n·T) array scan.
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
// BulkLosser) and the sparse refresh write into directly.
func (c *marginCache) column(t int) []float64 { return c.vals[t*c.n : (t+1)*c.n] }

// candidate is one (sensor, slot, marginal) selection result. v < 0
// means "no candidate".
type candidate struct {
	v, t  int
	value float64
}

// argmaxColumn returns slot t's best candidate among the sensors in
// pending — the engine's compacted, ascending list of still-unassigned
// sensors — with a strict > comparison (ties to the lowest v). Because
// pending preserves ascending sensor order, the scan visits exactly the
// sensors the full 0..n loop would have visited, in the same order,
// minus the assigned ones it would have skipped; the result is
// therefore identical while the per-sensor assigned-check branch and
// the dead iterations disappear from the hot loop. It is the
// per-column piece of the sequential engine's incremental selection:
// the engine keeps one such candidate per slot and only rescans the
// columns a greedy step can actually change.
func (c *marginCache) argmaxColumn(t int, pending []int) candidate {
	best := candidate{v: -1, t: -1, value: -1}
	col := c.column(t)
	for _, v := range pending {
		if g := col[v]; g > best.value {
			best = candidate{v: v, t: t, value: g}
		}
	}
	return best
}

// argminColumn is the removal-mode dual of argmaxColumn.
func (c *marginCache) argminColumn(t int, pending []int) candidate {
	best := candidate{v: -1, t: -1}
	found := false
	col := c.column(t)
	for _, v := range pending {
		if l := col[v]; !found || l < best.value {
			best = candidate{v: v, t: t, value: l}
			found = true
		}
	}
	return best
}

// dropPending removes sensor v from the ascending pending list in
// place, returning the shortened slice. Order is preserved, so later
// column scans keep the exact tie-break order of the full loop.
func dropPending(pending []int, v int) []int {
	for i, p := range pending {
		if p == v {
			return append(pending[:i], pending[i+1:]...)
		}
	}
	return pending
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
