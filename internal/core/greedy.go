package core

import (
	"container/heap"
	"fmt"

	"cool/internal/submodular"
)

// Greedy computes the paper's greedy hill-climbing schedule for the
// instance: the placement form (Algorithm 1) when the period grants one
// active slot (ρ ≥ 1), the passive-slot removal form (Section IV-B)
// otherwise. Both carry the 1/2-approximation guarantee (Lemma 4.1,
// Theorems 4.3 and 4.4). It is GreedySubset over the whole fleet.
func Greedy(in Instance) (*Schedule, error) {
	return GreedySubset(in, nil)
}

// newAssignment returns an all-unassigned (-1) slot-assignment vector.
func newAssignment(n int) []int {
	assign := make([]int, n)
	for v := range assign {
		assign[v] = -1
	}
	return assign
}

// GreedySubset computes the greedy schedule over a sub-population:
// sensors with present[v] == false receive the Absent assignment and
// never enter any oracle, and the greedy runs over the survivors
// exactly as Greedy would on a compacted instance (same floats, same
// lowest-(v, t) tie-breaks — the pending-list scans simply skip the
// absent IDs). A nil present schedules everyone. This is the
// incremental Repairer's ground truth: the from-scratch plan for the
// current fleet, with stable sensor IDs.
//
// The engine is the cached climb (see climb): a dirty-slot margin
// cache (see marginCache) plus one best candidate per slot, so a step
// refreshes one column — column-sparse when the oracle supports it —
// and rescans only the columns the step could have changed, while the
// schedule stays bit-identical to ReferenceGreedy's eager O(n·T) scan.
func GreedySubset(in Instance, present []bool) (*Schedule, error) {
	c, err := planClimb(in, present)
	if err != nil {
		return nil, err
	}
	return c.schedule()
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
// bound key on the value of scheduling sensor v at slot t (see
// lazyKey).
type gainEntry struct {
	v, t int
	key  float64
	// stamp is the global step at which key was computed; stale
	// entries are recomputed before use (CELF lazy evaluation).
	stamp int
}

// gainHeap is the CELF max-heap of both regimes.
type gainHeap []gainEntry

func (h gainHeap) Len() int { return len(h) }

// Less orders by key descending, breaking ties on (sensor, slot)
// ascending so that the lazy greedy resolves ties exactly like the
// eager climb and both produce identical schedules.
func (h gainHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key > h[j].key
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

// lazyKey returns the CELF heap key of scheduling v on o: its gain in
// placement, its negated loss in removal, so one max-heap serves both
// regimes. Negation is exact, so the key order is the loss-ascending
// order bit for bit, ties still going to the lowest (v, t).
func lazyKey(o submodular.RemovalOracle, v int, removal bool) float64 {
	if removal {
		return -o.Loss(v)
	}
	return o.Gain(v)
}

// LazyGreedy computes the same schedule as Greedy using CELF-style
// lazy evaluation: as the schedule grows, gains only shrink and losses
// only grow (submodularity), so every cached key is an upper bound, and
// a key that still tops the heap after recomputation belongs to the
// true best pair. With ties broken identically it returns Greedy's
// schedule at a fraction of the marginal evaluations. Like Greedy it
// runs the placement form for ρ ≥ 1 and the loss-side removal form
// otherwise.
func LazyGreedy(in Instance) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	mode := ModeFor(in.Period)
	oracles, err := SlotOracles(in, mode, newAssignment(in.N))
	if err != nil {
		return nil, err
	}
	return runLazy(oracles, lazyFill(oracles, in.N, mode == ModeRemoval), mode)
}

// lazyFill evaluates the initial (sensor, slot) keys for the lazy
// engines, laid out v-major (index v*T + t). Each slot's marginals come
// from one column fill (fillMarginals), so the floats are those of
// per-element queries; and since every entry's (key, v, t) is unique
// the CELF heap pops in the same order however the slice was produced.
func lazyFill(oracles []submodular.RemovalOracle, n int, removal bool) []gainEntry {
	T := len(oracles)
	entries := make([]gainEntry, n*T)
	col := make([]float64, n)
	for t, o := range oracles {
		fillMarginals(o, removal, col)
		for v, m := range col {
			if removal {
				m = -m
			}
			entries[v*T+t] = gainEntry{v: v, t: t, key: m}
		}
	}
	return entries
}

// runLazy executes the CELF loop over a pre-filled (unheapified) entry
// slice of every (sensor, slot) pair. Shared by the sequential and
// parallel lazy engines, which differ only in how the initial keys are
// evaluated.
func runLazy(oracles []submodular.RemovalOracle, entries []gainEntry, mode Mode) (*Schedule, error) {
	T := len(oracles)
	n := len(entries) / T
	removal := mode == ModeRemoval
	h := gainHeap(entries)
	heap.Init(&h)
	assign := newAssignment(n)
	step := 0
	for scheduled := 0; scheduled < n; {
		if h.Len() == 0 {
			return nil, fmt.Errorf("core: lazy greedy exhausted heap with %d unscheduled", n-scheduled)
		}
		e := heap.Pop(&h).(gainEntry)
		if assign[e.v] >= 0 {
			continue // sensor already scheduled; drop stale entry
		}
		if e.stamp != step {
			e.key = lazyKey(oracles[e.t], e.v, removal)
			e.stamp = step
			heap.Push(&h, e)
			continue
		}
		if removal {
			oracles[e.t].Remove(e.v)
		} else {
			oracles[e.t].Add(e.v)
		}
		assign[e.v] = e.t
		scheduled++
		step++
	}
	return NewSchedule(mode, T, assign)
}
