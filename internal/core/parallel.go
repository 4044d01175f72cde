package core

import (
	"fmt"

	"cool/internal/parallel"
	"cool/internal/submodular"
)

// This file implements the parallel scheduling engine: the CELF lazy
// greedy with its initial marginal evaluation — the lazy algorithm's
// dominant cost — sharded across worker goroutines.
//
// Determinism contract: for every instance and every worker count,
// ParallelLazyGreedy returns a schedule bit-identical to LazyGreedy,
// and so to Greedy. Two properties make this hold:
//
//  1. Workers own static, contiguous, disjoint sensor ranges of the
//     initial entry slice, so every marginal is computed by exactly one
//     goroutine from exactly the same oracle state as in the sequential
//     fill and lands at the same index — the floats are identical, not
//     merely close.
//  2. The priority-queue climb, and with it every oracle mutation, runs
//     on the coordinator after the fill has finished.
//
// Oracle sharing: when the factory's oracles advertise
// submodular.ConcurrentReadSafe, all workers query the same T oracles
// (Gain/Loss are pure reads). Otherwise every further worker receives
// its own Clone()-derived replica of all T oracles, so arbitrary user
// oracles parallelize safely at the cost of workers× oracle memory.

// ParallelLazyGreedy computes the CELF lazy-greedy schedule with the
// initial marginal evaluation sharded across workers goroutines (0 or
// negative selects runtime.NumCPU). The subsequent priority-queue
// climb is inherently sequential (each pop depends on the previous
// recomputation) and runs on the coordinator. The result is
// bit-identical to LazyGreedy for every worker count.
func ParallelLazyGreedy(in Instance, workers int) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	workers = parallel.Workers(workers)
	if workers > in.N {
		workers = in.N
	}
	if workers <= 1 {
		return LazyGreedy(in)
	}
	mode := ModeFor(in.Period)
	sets, err := workerOracles(in, mode, workers)
	if err != nil {
		return nil, err
	}
	entries, err := parallelLazyFill(in, sets, mode == ModeRemoval)
	if err != nil {
		return nil, err
	}
	return runLazy(sets[0], entries, mode)
}

// workerOracles returns one oracle set per worker (sets[w][t]), each
// the empty plan's slot oracles under mode. Worker 0 owns the base set
// the coordinator climbs on; the others alias it when the oracles are
// concurrent-read-safe and hold Clone()-derived replicas otherwise.
func workerOracles(in Instance, mode Mode, workers int) ([][]submodular.RemovalOracle, error) {
	base, err := SlotOracles(in, mode, newAssignment(in.N))
	if err != nil {
		return nil, err
	}
	shared := submodular.ReadsAreConcurrentSafe(base[0])
	sets := make([][]submodular.RemovalOracle, workers)
	sets[0] = base
	for w := 1; w < workers; w++ {
		if shared {
			sets[w] = base
			continue
		}
		replica := make([]submodular.RemovalOracle, len(base))
		for t, o := range base {
			c, ok := o.Clone().(submodular.RemovalOracle)
			if !ok {
				return nil, fmt.Errorf("core: oracle %T clones to a non-removal oracle", o)
			}
			replica[t] = c
		}
		sets[w] = replica
	}
	return sets, nil
}

// parallelLazyFill evaluates the initial (sensor, slot) marginals into
// an entry slice laid out exactly like the sequential fill
// (index v*T + t), worker w covering the w-th of len(sets) contiguous
// sensor ranges with its own oracle set.
func parallelLazyFill(in Instance, sets [][]submodular.RemovalOracle, removal bool) ([]gainEntry, error) {
	T := in.Period.Slots()
	entries := make([]gainEntry, in.N*T)
	bounds := chunkBounds(in.N, len(sets))
	err := parallel.For(len(bounds)-1, len(bounds)-1, func(w int) error {
		for v := bounds[w]; v < bounds[w+1]; v++ {
			for t, o := range sets[w] {
				entries[v*T+t] = gainEntry{v: v, t: t, key: lazyKey(o, v, removal)}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// chunkBounds splits [0, n) into k near-equal contiguous ranges,
// returning k+1 boundaries (bounds[w] .. bounds[w+1] is worker w's
// range). k is clamped to n so no range is empty.
func chunkBounds(n, k int) []int {
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	bounds := make([]int, k+1)
	base, rem := n/k, n%k
	for w := 0; w < k; w++ {
		size := base
		if w < rem {
			size++
		}
		bounds[w+1] = bounds[w] + size
	}
	return bounds
}
