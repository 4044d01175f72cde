package core

import (
	"container/heap"
	"fmt"

	"cool/internal/submodular"
)

// Greedy computes the paper's greedy hill-climbing schedule for the
// instance, dispatching to the placement form (Algorithm 1) when the
// period grants one active slot (ρ ≥ 1) and to the passive-slot removal
// form (Section IV-B) otherwise. Both forms carry the 1/2-approximation
// guarantee (Lemma 4.1, Theorems 4.3 and 4.4).
func Greedy(in Instance) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if ModeFor(in.Period) == ModePlacement {
		return greedyPlacement(in)
	}
	return greedyRemoval(in)
}

// greedyPlacement is Algorithm 1: repeatedly assign the (sensor, slot)
// pair with the maximum incremental utility until every sensor is
// scheduled. It carries a dirty-slot marginal cache (see marginCache)
// plus one cached best candidate per slot: after a step only the slot
// that received the Add has stale gains, so each step refreshes one
// column (a column-sparse sweep over just the sensors sharing a target
// with the added sensor when the oracle supports the sparse-refresh
// contract, a single bulk sweep otherwise) and rescans
// only the columns the step could have changed — the dirty column, and
// any column whose cached best was the just-assigned sensor. Removing a
// sensor that is *not* a column's recorded argmax can never change that
// column's strict-scan result (an equal-valued lower-v sensor would
// have been recorded instead), so untouched candidates stay exact and
// the schedule remains bit-identical to the seed's eager O(n·T) scan.
// Column rescans iterate a compacted ascending list of unassigned
// sensors (see argmaxColumn) rather than all n with a skip branch;
// the visit order is unchanged, only dead work is removed.
func greedyPlacement(in Instance) (*Schedule, error) {
	T := in.Period.Slots()
	oracles := make([]submodular.RemovalOracle, T)
	for t := range oracles {
		oracles[t] = in.Factory()
	}
	assign := newAssignment(in.N)
	pending := newPending(in.N)
	cache := newMarginCache(in.N, T)
	for t := 0; t < T; t++ {
		fillColumn(cache, t, oracles[t], assign, false)
	}
	err := runPlacementLoop(oracles, cache, assign, pending, func(t, changed int) {
		refreshColumnAfter(cache, t, oracles[t], assign, false, changed)
	})
	if err != nil {
		return nil, err
	}
	return NewSchedule(ModePlacement, T, assign)
}

// runPlacementLoop is the shared body of the placement greedy: it
// assigns every sensor of pending (ascending, all unassigned) to its
// argmax slot, maintaining the per-column candidate tracking described
// on greedyPlacement. The cache must hold exact gains for every pending
// sensor on entry; after each Add the loop calls refresh(t, changed) to
// restore exactness of the mutated column. Extracting the loop lets the
// incremental Repairer insert perturbation batches through the *same*
// code path as the full plan, so a repairer insertion is bit-identical
// to the greedy having scheduled those sensors last. The pending slice
// is consumed.
func runPlacementLoop(oracles []submodular.RemovalOracle, cache *marginCache, assign []int, pending []int, refresh func(t, changed int)) error {
	T := len(oracles)
	colBest := make([]candidate, T)
	for t := 0; t < T; t++ {
		colBest[t] = cache.argmaxColumn(t, pending)
	}
	steps := len(pending)
	for step := 0; step < steps; step++ {
		best := bestOfColumnsMax(colBest)
		if best.v < 0 {
			return fmt.Errorf("core: greedy found no candidate at step %d", step)
		}
		oracles[best.t].Add(best.v)
		assign[best.v] = best.t
		pending = dropPending(pending, best.v)
		// Dirty-slot refresh: only best.t's oracle changed — and within
		// it, only the sensors sharing a target with best.v (sparse
		// refresh when the oracle supports it; see refreshColumnAfter).
		refresh(best.t, best.v)
		colBest[best.t] = cache.argmaxColumn(best.t, pending)
		for t := 0; t < T; t++ {
			if t != best.t && colBest[t].v == best.v {
				colBest[t] = cache.argmaxColumn(t, pending)
			}
		}
	}
	return nil
}

// fillColumn refreshes slot t's cache column from its oracle. When the
// oracle provides the one-pass bulk marginal (submodular.BulkGainer /
// BulkLosser) the whole column is written by a single target-major CSR
// sweep; otherwise it falls back to per-sensor Gain/Loss queries. The
// bulk contract guarantees bit-identical columns on both paths, so
// engine determinism — including parallel-vs-sequential equality, where
// the sharded workers use the per-sensor path — is unaffected.
func fillColumn(cache *marginCache, t int, o submodular.RemovalOracle, assign []int, removal bool) {
	if removal {
		if b, ok := o.(submodular.BulkLosser); ok {
			b.BulkLoss(cache.column(t))
			return
		}
		cache.fillSlot(t, assign, o.Loss)
		return
	}
	if b, ok := o.(submodular.BulkGainer); ok {
		b.BulkGain(cache.column(t))
		return
	}
	cache.fillSlot(t, assign, o.Gain)
}

// refreshColumnAfter refreshes slot t's cache column after its oracle
// absorbed the Add (placement) or Remove (removal) of sensor changed.
// When the oracle implements the column-sparse refresh contract
// (submodular.SparseGainRefresher / SparseLossRefresher) only the CSR
// rows of the targets changed covers are swept — O(affected) work
// instead of a full O(n + edges) column rebuild — and the contract
// guarantees the resulting column is bit-identical to a full refresh:
// unaffected sensors' marginals cannot have changed (their per-target
// state was untouched by the mutation) and affected sensors are
// recomputed through the same Gain/Loss arithmetic the bulk sweep is
// contractually identical to. Oracles without the sparse contract fall
// back to the full-column fillColumn path.
func refreshColumnAfter(cache *marginCache, t int, o submodular.RemovalOracle, assign []int, removal bool, changed int) {
	if removal {
		if sr, ok := o.(submodular.SparseLossRefresher); ok {
			sr.SparseLossRefresh(changed, cache.column(t))
			return
		}
	} else if sr, ok := o.(submodular.SparseGainRefresher); ok {
		sr.SparseGainRefresh(changed, cache.column(t))
		return
	}
	fillColumn(cache, t, o, assign, removal)
}

// greedyRemoval is the ρ ≤ 1 scheme: start from "every sensor active in
// every slot" and, sensor by sensor, choose the passive slot whose
// removal loses the least utility. It uses the same dirty-slot cache
// and per-column candidate tracking as greedyPlacement, on the loss
// side.
func greedyRemoval(in Instance) (*Schedule, error) {
	T := in.Period.Slots()
	oracles := make([]submodular.RemovalOracle, T)
	for t := range oracles {
		o := in.Factory()
		for v := 0; v < in.N; v++ {
			o.Add(v)
		}
		oracles[t] = o
	}
	assign := newAssignment(in.N)
	pending := newPending(in.N)
	cache := newMarginCache(in.N, T)
	for t := 0; t < T; t++ {
		fillColumn(cache, t, oracles[t], assign, true)
	}
	err := runRemovalLoop(oracles, cache, assign, pending, func(t, changed int) {
		refreshColumnAfter(cache, t, oracles[t], assign, true, changed)
	})
	if err != nil {
		return nil, err
	}
	return NewSchedule(ModeRemoval, T, assign)
}

// runRemovalLoop is the loss-side dual of runPlacementLoop: every
// sensor of pending receives the passive slot whose removal loses the
// least utility, with the same per-column candidate tracking and the
// same exact-cache/refresh contract. Shared by greedyRemoval and the
// incremental Repairer. The pending slice is consumed.
func runRemovalLoop(oracles []submodular.RemovalOracle, cache *marginCache, assign []int, pending []int, refresh func(t, changed int)) error {
	T := len(oracles)
	colBest := make([]candidate, T)
	for t := 0; t < T; t++ {
		colBest[t] = cache.argminColumn(t, pending)
	}
	steps := len(pending)
	for step := 0; step < steps; step++ {
		best := bestOfColumnsMin(colBest)
		if best.v < 0 {
			return fmt.Errorf("core: removal greedy found no candidate at step %d", step)
		}
		oracles[best.t].Remove(best.v)
		assign[best.v] = best.t
		pending = dropPending(pending, best.v)
		refresh(best.t, best.v)
		colBest[best.t] = cache.argminColumn(best.t, pending)
		for t := 0; t < T; t++ {
			if t != best.t && colBest[t].v == best.v {
				colBest[t] = cache.argminColumn(t, pending)
			}
		}
	}
	return nil
}

// newAssignment returns an all-unassigned (-1) slot-assignment vector.
func newAssignment(n int) []int {
	assign := make([]int, n)
	for v := range assign {
		assign[v] = -1
	}
	return assign
}

// newPending returns the ascending list of all n sensors — the
// sequential engines' compacted work list, shrunk by dropPending as
// sensors are scheduled so column rescans touch only live candidates.
func newPending(n int) []int {
	pending := make([]int, n)
	for v := range pending {
		pending[v] = v
	}
	return pending
}

// GreedySubset computes the greedy schedule over a sub-population:
// sensors with present[v] == false receive the Absent assignment and
// never enter any oracle, and the greedy runs over the survivors
// exactly as Greedy would on a compacted instance (same floats, same
// lowest-(v, t) tie-breaks — the pending-list scans simply skip the
// absent IDs). A nil present schedules everyone, making
// GreedySubset(in, nil) bit-identical to Greedy(in). This is the
// incremental Repairer's ground truth: the from-scratch plan for the
// current fleet, with stable sensor IDs.
func GreedySubset(in Instance, present []bool) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if present == nil {
		return Greedy(in)
	}
	if len(present) != in.N {
		return nil, fmt.Errorf("core: present covers %d sensors, instance has %d", len(present), in.N)
	}
	T := in.Period.Slots()
	removal := ModeFor(in.Period) == ModeRemoval
	assign := newAssignment(in.N)
	pending := make([]int, 0, in.N)
	for v := 0; v < in.N; v++ {
		if present[v] {
			pending = append(pending, v)
		} else {
			assign[v] = Absent
		}
	}
	oracles := make([]submodular.RemovalOracle, T)
	for t := range oracles {
		o := in.Factory()
		if removal {
			for _, v := range pending {
				o.Add(v)
			}
		}
		oracles[t] = o
	}
	cache := newMarginCache(in.N, T)
	var err error
	if removal {
		for t := 0; t < T; t++ {
			fillColumn(cache, t, oracles[t], assign, true)
		}
		err = runRemovalLoop(oracles, cache, assign, pending, func(t, changed int) {
			refreshColumnAfter(cache, t, oracles[t], assign, true, changed)
		})
	} else {
		for t := 0; t < T; t++ {
			fillColumn(cache, t, oracles[t], assign, false)
		}
		err = runPlacementLoop(oracles, cache, assign, pending, func(t, changed int) {
			refreshColumnAfter(cache, t, oracles[t], assign, false, changed)
		})
	}
	if err != nil {
		return nil, err
	}
	if removal {
		return NewSchedule(ModeRemoval, T, assign)
	}
	return NewSchedule(ModePlacement, T, assign)
}

// ReferenceGreedy computes the same schedule as Greedy with the seed's
// uncached eager scan: every step re-evaluates Gain/Loss for all
// unassigned (sensor, slot) pairs, O(n²·T·deg) total. It is retained as
// the correctness and performance yardstick for the cached, lazy and
// parallel engines — determinism tests assert bit-identical schedules
// against it, and BenchmarkGreedyParallel times them against it.
func ReferenceGreedy(in Instance) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if ModeFor(in.Period) == ModePlacement {
		return referencePlacement(in)
	}
	return referenceRemoval(in)
}

func referencePlacement(in Instance) (*Schedule, error) {
	T := in.Period.Slots()
	oracles := make([]submodular.RemovalOracle, T)
	for t := range oracles {
		oracles[t] = in.Factory()
	}
	assign := newAssignment(in.N)
	for step := 0; step < in.N; step++ {
		bestV, bestT, bestGain := -1, -1, -1.0
		for v := 0; v < in.N; v++ {
			if assign[v] >= 0 {
				continue
			}
			for t := 0; t < T; t++ {
				if g := oracles[t].Gain(v); g > bestGain {
					bestV, bestT, bestGain = v, t, g
				}
			}
		}
		if bestV < 0 {
			return nil, fmt.Errorf("core: greedy found no candidate at step %d", step)
		}
		oracles[bestT].Add(bestV)
		assign[bestV] = bestT
	}
	return NewSchedule(ModePlacement, T, assign)
}

func referenceRemoval(in Instance) (*Schedule, error) {
	T := in.Period.Slots()
	oracles := make([]submodular.RemovalOracle, T)
	for t := range oracles {
		o := in.Factory()
		for v := 0; v < in.N; v++ {
			o.Add(v)
		}
		oracles[t] = o
	}
	assign := newAssignment(in.N)
	for step := 0; step < in.N; step++ {
		bestV, bestT := -1, -1
		bestLoss := 0.0
		first := true
		for v := 0; v < in.N; v++ {
			if assign[v] >= 0 {
				continue
			}
			for t := 0; t < T; t++ {
				l := oracles[t].Loss(v)
				if first || l < bestLoss {
					bestV, bestT, bestLoss = v, t, l
					first = false
				}
			}
		}
		if bestV < 0 {
			return nil, fmt.Errorf("core: removal greedy found no candidate at step %d", step)
		}
		oracles[bestT].Remove(bestV)
		assign[bestV] = bestT
	}
	return NewSchedule(ModeRemoval, T, assign)
}

// gainEntry is a lazy-greedy priority-queue element: a cached upper
// bound on the gain of scheduling sensor v at slot t.
type gainEntry struct {
	v, t int
	gain float64
	// stamp is the global step at which gain was computed; stale
	// entries are recomputed before use (CELF lazy evaluation).
	stamp int
}

type gainHeap []gainEntry

func (h gainHeap) Len() int { return len(h) }

// Less orders by gain descending, breaking ties on (sensor, slot)
// ascending so that the lazy greedy resolves ties exactly like the
// eager scan in greedyPlacement and both produce identical schedules.
func (h gainHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	if h[i].v != h[j].v {
		return h[i].v < h[j].v
	}
	return h[i].t < h[j].t
}

func (h gainHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *gainHeap) Push(x any) { *h = append(*h, x.(gainEntry)) }

func (h *gainHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// LazyGreedyRemoval computes the same passive-slot schedule as Greedy
// for ρ ≤ 1 instances using lazy loss evaluation. The dual of the CELF
// argument applies: as sensors are removed, the loss of removing any
// remaining sensor can only grow (submodularity), so cached losses are
// lower bounds; when a freshly recomputed loss still sits at the heap
// minimum it is the true minimizer.
func LazyGreedyRemoval(in Instance) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if ModeFor(in.Period) != ModeRemoval {
		return nil, fmt.Errorf("core: LazyGreedyRemoval requires a removal-mode period (ρ ≤ 1)")
	}
	T := in.Period.Slots()
	oracles := make([]submodular.RemovalOracle, T)
	for t := range oracles {
		o := in.Factory()
		for v := 0; v < in.N; v++ {
			o.Add(v)
		}
		oracles[t] = o
	}
	assign := newAssignment(in.N)
	return runLazyRemoval(oracles, lossHeap(lazyFill(oracles, in.N, T, true)), assign, in.N, T)
}

// lazyFill evaluates the initial (sensor, slot) marginals for the lazy
// engines, laid out v-major (index v*T + t) like the sequential loop it
// replaces. Slots whose oracles provide bulk marginals are filled by a
// single sweep into a scratch column; the floats are bit-identical to
// per-element queries (the Bulk contract), and since every entry's
// (gain, v, t) key is unique the CELF heap pops in the same order
// regardless of how the initial slice was produced.
func lazyFill(oracles []submodular.RemovalOracle, n, T int, removal bool) []gainEntry {
	entries := make([]gainEntry, n*T)
	var col []float64
	for t := 0; t < T; t++ {
		var bulk func([]float64)
		if removal {
			if b, ok := oracles[t].(submodular.BulkLosser); ok {
				bulk = b.BulkLoss
			}
		} else {
			if b, ok := oracles[t].(submodular.BulkGainer); ok {
				bulk = b.BulkGain
			}
		}
		if bulk != nil {
			if col == nil {
				col = make([]float64, n)
			}
			bulk(col)
			for v := 0; v < n; v++ {
				entries[v*T+t] = gainEntry{v: v, t: t, gain: col[v], stamp: 0}
			}
			continue
		}
		for v := 0; v < n; v++ {
			var m float64
			if removal {
				m = oracles[t].Loss(v)
			} else {
				m = oracles[t].Gain(v)
			}
			entries[v*T+t] = gainEntry{v: v, t: t, gain: m, stamp: 0}
		}
	}
	return entries
}

// runLazyRemoval executes the loss-side CELF loop over a pre-filled
// (unheapified) entry slice. Shared by the sequential and parallel lazy
// engines, which differ only in how the initial losses are evaluated.
func runLazyRemoval(oracles []submodular.RemovalOracle, h lossHeap, assign []int, n, T int) (*Schedule, error) {
	heap.Init(&h)
	step := 0
	for scheduled := 0; scheduled < n; {
		if h.Len() == 0 {
			return nil, fmt.Errorf("core: lazy removal exhausted heap with %d unscheduled", n-scheduled)
		}
		e := heap.Pop(&h).(gainEntry)
		if assign[e.v] >= 0 {
			continue
		}
		if e.stamp != step {
			e.gain = oracles[e.t].Loss(e.v)
			e.stamp = step
			heap.Push(&h, e)
			continue
		}
		oracles[e.t].Remove(e.v)
		assign[e.v] = e.t
		scheduled++
		step++
	}
	return NewSchedule(ModeRemoval, T, assign)
}

// lossHeap is a min-heap over gainEntry (interpreting gain as loss),
// with the same lexicographic tie-breaking as the eager removal scan.
type lossHeap []gainEntry

func (h lossHeap) Len() int { return len(h) }

func (h lossHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain < h[j].gain
	}
	if h[i].v != h[j].v {
		return h[i].v < h[j].v
	}
	return h[i].t < h[j].t
}

func (h lossHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *lossHeap) Push(x any) { *h = append(*h, x.(gainEntry)) }

func (h *lossHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// LazyGreedy computes the same schedule as Greedy using CELF-style
// lazy evaluation of marginal gains: because gains only shrink as the
// schedule grows (submodularity), a cached gain that still tops the
// heap after recomputation is the true maximizer. With ties broken
// identically it returns Greedy's schedule at a fraction of the gain
// evaluations. Like Greedy it dispatches on the period: ρ ≥ 1 runs the
// placement form here, ρ < 1 the loss-side dual LazyGreedyRemoval.
func LazyGreedy(in Instance) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if ModeFor(in.Period) == ModeRemoval {
		return LazyGreedyRemoval(in)
	}
	T := in.Period.Slots()
	oracles := make([]submodular.RemovalOracle, T)
	for t := range oracles {
		oracles[t] = in.Factory()
	}
	assign := newAssignment(in.N)
	return runLazyPlacement(oracles, gainHeap(lazyFill(oracles, in.N, T, false)), assign, in.N, T)
}

// runLazyPlacement executes the CELF loop over a pre-filled
// (unheapified) entry slice. Shared by the sequential and parallel lazy
// engines, which differ only in how the initial gains are evaluated.
func runLazyPlacement(oracles []submodular.RemovalOracle, h gainHeap, assign []int, n, T int) (*Schedule, error) {
	heap.Init(&h)
	step := 0
	for scheduled := 0; scheduled < n; {
		if h.Len() == 0 {
			return nil, fmt.Errorf("core: lazy greedy exhausted heap with %d unscheduled", n-scheduled)
		}
		e := heap.Pop(&h).(gainEntry)
		if assign[e.v] >= 0 {
			continue // sensor already placed; drop stale entry
		}
		if e.stamp != step {
			e.gain = oracles[e.t].Gain(e.v)
			e.stamp = step
			heap.Push(&h, e)
			continue
		}
		oracles[e.t].Add(e.v)
		assign[e.v] = e.t
		scheduled++
		step++
	}
	return NewSchedule(ModePlacement, T, assign)
}
