package core

import (
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
// lowest-(v, t) tie-breaks — the margin table and its winner tree
// index only the present IDs). A nil present schedules everyone. This
// is the incremental Repairer's ground truth: the from-scratch plan for
// the current fleet, with stable sensor IDs.
//
// The engine is the indexed climb (see climb): a dirty-slot margin
// table with one row per present sensor, indexed by one winner tree,
// so a step selects at the root, refreshes one column — column-sparse
// when the oracle lists affected sensors — and rescans only the rows
// the refresh rewrote, in O(T + log n) each, while the schedule stays
// bit-identical to ReferenceGreedy's eager O(n·T) scan. The table and
// the tree live for the one plan.
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
// the correctness and performance yardstick for the climb —
// determinism tests assert bit-identical schedules against it, and
// BenchmarkEngineMatrix times the climb against it.
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
