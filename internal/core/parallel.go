package core

import (
	"fmt"
	"sync"

	"cool/internal/parallel"
	"cool/internal/submodular"
)

// This file implements the parallel scheduling engine: the greedy
// hill-climb with its gain scans sharded across worker goroutines over
// slot-partitioned oracles.
//
// Determinism contract: for every instance and every worker count,
// ParallelGreedy returns a schedule bit-identical to Greedy, and
// ParallelLazyGreedy one bit-identical to LazyGreedy /
// LazyGreedyRemoval. Three properties make this hold:
//
//  1. Workers own static, contiguous, disjoint sensor ranges of the
//     marginCache, so every cached marginal is computed by exactly one
//     goroutine from exactly the same oracle state as in the sequential
//     run — the floats are identical, not merely close.
//  2. Each worker scans its range in ascending (sensor, slot) order
//     with strict comparisons, and per-worker candidates are merged in
//     range order with the same strict comparisons, which reproduces
//     the sequential scan's lowest-(v, t) tie-break globally.
//  3. Oracle mutations (Add/Remove) happen only between parallel read
//     phases, on the coordinator goroutine or replicated identically
//     into every worker's oracle set.
//
// Oracle sharing: when the factory's oracles advertise
// submodular.ConcurrentReadSafe, all workers query the same T oracles
// (Gain/Loss are pure reads). Otherwise each worker receives its own
// Clone()-derived replica of all T oracles and replays every mutation
// locally, so arbitrary user oracles parallelize safely at the cost of
// workers× oracle memory.

// ParallelGreedy computes the paper's greedy schedule with the gain
// scan sharded across workers goroutines (0 or negative selects
// runtime.NumCPU). The returned schedule is bit-identical to
// Greedy's for every worker count; see the determinism contract above.
func ParallelGreedy(in Instance, workers int) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	workers = parallel.Workers(workers)
	if workers > in.N {
		workers = in.N
	}
	if workers <= 1 {
		return Greedy(in)
	}
	if ModeFor(in.Period) == ModePlacement {
		return parallelPlacement(in, workers)
	}
	return parallelRemoval(in, workers)
}

// ParallelLazyGreedy computes the CELF lazy-greedy schedule with the
// initial marginal evaluation — the lazy algorithm's dominant cost —
// sharded across workers goroutines. The subsequent priority-queue
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
	if ModeFor(in.Period) == ModePlacement {
		return parallelLazyPlacement(in, workers)
	}
	return parallelLazyRemoval(in, workers)
}

// oracleShards holds one oracle set per worker. When the oracles are
// concurrent-read-safe every entry aliases the same underlying set and
// mutations are applied once; otherwise each worker owns an independent
// replica and replays mutations locally.
type oracleShards struct {
	sets   [][]submodular.RemovalOracle // sets[w][t]
	shared bool
}

// replicaPool recycles the Clone()-derived per-worker oracle replica
// sets of the non-read-safe fallback path across parallel runs. A
// replica set is only a scratch copy of the base oracles' state, so
// once a run finishes it can be handed to the next run and overwritten
// in place via submodular.StateCopier — no fresh membership sets, no
// fresh per-target arrays. Compatibility (same concrete oracle type,
// same underlying utility, same ground size) is re-verified element by
// element on every acquire; incompatible pooled sets are simply
// dropped, so correctness never depends on what the pool happens to
// hold.
var replicaPool sync.Pool

type pooledReplicaSet struct {
	oracles []submodular.RemovalOracle
}

// acquireReplicaSet returns an oracle set mirroring base's current
// state for one worker: a pooled set adopted in place when compatible,
// fresh clones otherwise.
func acquireReplicaSet(base []submodular.RemovalOracle) ([]submodular.RemovalOracle, error) {
	if p, ok := replicaPool.Get().(*pooledReplicaSet); ok && adoptReplicaSet(p.oracles, base) {
		return p.oracles, nil
	}
	replica := make([]submodular.RemovalOracle, len(base))
	for t, o := range base {
		c, ok := o.Clone().(submodular.RemovalOracle)
		if !ok {
			return nil, fmt.Errorf("core: oracle %T clones to a non-removal oracle", o)
		}
		replica[t] = c
	}
	return replica, nil
}

// adoptReplicaSet overwrites dst's oracle states with base's via the
// StateCopier contract, reporting whether every slot succeeded. On
// false the set must be discarded (some slots may hold partial state).
func adoptReplicaSet(dst, base []submodular.RemovalOracle) bool {
	if len(dst) != len(base) {
		return false
	}
	for t, o := range base {
		sc, ok := dst[t].(submodular.StateCopier)
		if !ok || !sc.CopyStateFrom(o) {
			return false
		}
	}
	return true
}

// release returns the per-worker replica sets to the pool. It must only
// be called once no goroutine references the replicas anymore (the end
// of a parallel run). Shared shards own no replicas and release nothing.
func (s *oracleShards) release() {
	if s.shared {
		return
	}
	for w := 1; w < len(s.sets); w++ {
		if s.sets[w] != nil {
			replicaPool.Put(&pooledReplicaSet{oracles: s.sets[w]})
			s.sets[w] = nil
		}
	}
}

// buildShards constructs the per-worker oracle sets for an instance.
// full selects removal-mode initialization (every sensor active in
// every slot).
func buildShards(in Instance, workers int, full bool) (*oracleShards, error) {
	T := in.Period.Slots()
	base := make([]submodular.RemovalOracle, T)
	for t := range base {
		o := in.Factory()
		if o == nil {
			return nil, fmt.Errorf("core: oracle factory returned nil for slot %d", t)
		}
		if full {
			for v := 0; v < in.N; v++ {
				o.Add(v)
			}
		}
		base[t] = o
	}
	s := &oracleShards{
		sets:   make([][]submodular.RemovalOracle, workers),
		shared: submodular.ReadsAreConcurrentSafe(base[0]),
	}
	s.sets[0] = base
	for w := 1; w < workers; w++ {
		if s.shared {
			s.sets[w] = base
			continue
		}
		replica, err := acquireReplicaSet(base)
		if err != nil {
			return nil, err
		}
		s.sets[w] = replica
	}
	return s, nil
}

// applyShared performs a mutation once on the shared oracle set. It
// must be called on the coordinator, strictly between parallel read
// phases (the read-safety contract covers concurrent reads only).
func (s *oracleShards) applyShared(t, v int, add bool) {
	if add {
		s.sets[0][t].Add(v)
	} else {
		s.sets[0][t].Remove(v)
	}
}

// applyReplica replays a mutation on worker w's private replica. Safe
// to call from inside w's own parallel phase: no other goroutine ever
// touches w's replica set.
func (s *oracleShards) applyReplica(w, t, v int, add bool) {
	if add {
		s.sets[w][t].Add(v)
	} else {
		s.sets[w][t].Remove(v)
	}
}

// parallelClimb is the shared engine behind parallelPlacement and
// parallelRemoval: fill the marginal cache in parallel, then repeat
// {merge per-worker candidates → mutate the chosen slot → refresh the
// dirty column and rescan in parallel} until every sensor is assigned.
//
// Each worker owns a compacted pending sublist of its static sensor
// range — the parallel counterpart of the sequential engine's pending
// list. Dirty-column refreshes and candidate rescans iterate the
// sublist instead of the full range with an assigned-check branch;
// because every sublist preserves ascending sensor order and the
// chosen sensor is dropped from exactly its owner's sublist before the
// worker refreshes or scans, each phase visits the same live (v, t)
// pairs in the same order as the full-range scan, so the merged result
// (including every tie-break) is bit-identical. A worker only ever
// touches its own sublist, and only inside its own parallel phase, so
// the compaction adds no cross-goroutine traffic.
func parallelClimb(in Instance, workers int, removal bool) (*Schedule, error) {
	T := in.Period.Slots()
	n := in.N
	shards, err := buildShards(in, workers, removal)
	if err != nil {
		return nil, err
	}
	defer shards.release()
	assign := newAssignment(n)
	cache := newMarginCache(n, T)
	bounds := chunkBounds(n, workers)
	workers = len(bounds) - 1
	locals := make([]candidate, workers)
	pend := make([][]int, workers)
	for w := range pend {
		pend[w] = rangePending(bounds[w], bounds[w+1])
	}

	// margin returns worker w's evaluation function for slot t.
	margin := func(w, t int) func(int) float64 {
		if removal {
			return shards.sets[w][t].Loss
		}
		return shards.sets[w][t].Gain
	}
	scan := func(w int) candidate {
		if removal {
			return cache.argminPending(pend[w])
		}
		return cache.argmaxPending(pend[w])
	}
	merge := func() candidate {
		if removal {
			return mergeMin(locals)
		}
		return mergeMax(locals)
	}

	// Initial fill: every worker evaluates all T slots for its sensor
	// range (the sublists still cover the full ranges), then records
	// its local best.
	if err := parallel.For(workers, workers, func(w int) error {
		for t := 0; t < T; t++ {
			cache.fillSlotPending(t, pend[w], margin(w, t))
		}
		locals[w] = scan(w)
		return nil
	}); err != nil {
		return nil, err
	}

	for step := 0; step < n; step++ {
		best := merge()
		if best.v < 0 {
			return nil, fmt.Errorf("core: parallel greedy found no candidate at step %d", step)
		}
		assign[best.v] = best.t
		bv, bt := best.v, best.t
		if step == n-1 {
			break // nothing left to refresh or scan
		}
		if shards.shared {
			// Mutate the shared oracle on the coordinator, before any
			// worker reads it again: read-safety covers concurrent
			// reads only, never a write racing a read.
			shards.applyShared(bt, bv, !removal)
		}
		if err := parallel.For(workers, workers, func(w int) error {
			// Drop the scheduled sensor from its owner's sublist,
			// replay the mutation on private replicas, refresh the
			// dirty column, and rescan. Slots other than bt are
			// untouched, so their cached marginals remain exact.
			if bv >= bounds[w] && bv < bounds[w+1] {
				pend[w] = dropPending(pend[w], bv)
			}
			if !shards.shared {
				shards.applyReplica(w, bt, bv, !removal)
			}
			cache.fillSlotPending(bt, pend[w], margin(w, bt))
			locals[w] = scan(w)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	mode := ModePlacement
	if removal {
		mode = ModeRemoval
	}
	return NewSchedule(mode, T, assign)
}

func parallelPlacement(in Instance, workers int) (*Schedule, error) {
	return parallelClimb(in, workers, false)
}

func parallelRemoval(in Instance, workers int) (*Schedule, error) {
	return parallelClimb(in, workers, true)
}

// parallelLazyFill evaluates the initial (sensor, slot) marginals into
// an entry slice laid out exactly like the sequential fill
// (index v*T + t), sharded by sensor range.
func parallelLazyFill(in Instance, workers int, shards *oracleShards, removal bool) ([]gainEntry, error) {
	T := in.Period.Slots()
	entries := make([]gainEntry, in.N*T)
	bounds := chunkBounds(in.N, workers)
	err := parallel.For(len(bounds)-1, len(bounds)-1, func(w int) error {
		for v := bounds[w]; v < bounds[w+1]; v++ {
			for t := 0; t < T; t++ {
				var m float64
				if removal {
					m = shards.sets[w][t].Loss(v)
				} else {
					m = shards.sets[w][t].Gain(v)
				}
				entries[v*T+t] = gainEntry{v: v, t: t, gain: m, stamp: 0}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return entries, nil
}

func parallelLazyPlacement(in Instance, workers int) (*Schedule, error) {
	shards, err := buildShards(in, workers, false)
	if err != nil {
		return nil, err
	}
	defer shards.release()
	entries, err := parallelLazyFill(in, workers, shards, false)
	if err != nil {
		return nil, err
	}
	return runLazyPlacement(shards.sets[0], gainHeap(entries), newAssignment(in.N), in.N, in.Period.Slots())
}

func parallelLazyRemoval(in Instance, workers int) (*Schedule, error) {
	shards, err := buildShards(in, workers, true)
	if err != nil {
		return nil, err
	}
	defer shards.release()
	entries, err := parallelLazyFill(in, workers, shards, true)
	if err != nil {
		return nil, err
	}
	return runLazyRemoval(shards.sets[0], lossHeap(entries), newAssignment(in.N), in.N, in.Period.Slots())
}
