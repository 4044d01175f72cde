package core

import (
	"fmt"
	"sort"

	"cool/internal/energy"
	"cool/internal/submodular"
)

// This file implements the incremental online replanner (ROADMAP item
// 2): a Repairer owns a committed schedule plus the live per-slot
// oracle and margin-cache state, and repairs the schedule after a fleet
// perturbation in time proportional to the perturbation instead of
// replanning the whole fleet.
//
// Damage localization: the submodular oracles' CSR incidence bounds the
// blast radius of any single-sensor change — only sensors sharing a
// target with a changed sensor can see their marginals move
// (AffectedLister enumerates exactly that set), and only the slots
// whose oracles absorbed a mutation have stale cache columns (the
// dirty-slot invariant of marginCache). A k-sensor perturbation
// therefore costs one batch sparse sweep over the union of the changed
// sensors' CSR rows per touched column (SparseGainRefreshAll /
// SparseLossRefreshAll), plus a bounded strict-improvement sweep over
// the damage front.
//
// Engine: the Repairer keeps the greedy climb that planned its
// schedule (see climb) alive between operations, so its margin cache
// holds cache[v][t] == oracles[t].Gain(v) (placement) or .Loss(v)
// (removal) bit-exactly for every sensor, members included. A batch
// insertion runs the climb's own greedy loop, and the repair sweep
// reads moves straight from the cache, so its decisions are
// bit-identical to querying the oracles directly — the same move
// discipline as the sharded planner's border-correction sweep
// (shard.correctionSweep).

// DefaultRepairRounds bounds the strict-improvement sweep after a
// perturbation, mirroring the sharded correction sweep's default: each
// round strictly improves utility, and in practice the hill-climb is at
// a fixed point after one or two rounds.
const DefaultRepairRounds = 4

// RepairStats reports what one repair operation did and what it cost.
type RepairStats struct {
	// Changed is the size of the perturbation (sensors added, removed,
	// or the whole present fleet for a ρ update).
	Changed int
	// Dirty is the size of the damage front: sensors whose footprint
	// shares incidence with a changed sensor and were therefore
	// re-examined by the sweep.
	Dirty int
	// Rounds and Moves describe the strict-improvement sweep: rounds
	// actually run and reassignments applied.
	Rounds, Moves int
	// Full reports that the operation fell back to a from-scratch
	// replan over the present fleet (currently only ρ updates that
	// change the period shape).
	Full bool
	// UtilityBefore and Utility are the period utility (Σ_t U(S_t)) of
	// the committed schedule before and after the operation, as
	// maintained incrementally by the live oracles.
	UtilityBefore, Utility float64
}

// Repairer is the incremental replanning engine. Construct with
// NewRepairer (which plans the initial schedule, bit-identically to
// Greedy), then apply perturbations with AddSensors, RemoveSensors and
// UpdateRho; each returns RepairStats and leaves the committed schedule
// feasible for the current period. Ground truth is the from-scratch
// plan over the surviving fleet (GreedySubset); GapVsFullReplan reports
// the utility gap against it, and the fixed points of RepairAll carry
// the local-search 1/2-approximation guarantee (DESIGN.md §5.7).
//
// The ground set is fixed at construction: AddSensors re-activates
// sensors from the instance's universe (a reserve pool, or sensors
// previously removed), it does not grow N. Growing the universe is the
// wsn layer's AddSensors + a new Repairer.
//
// A Repairer is not safe for concurrent use.
type Repairer struct {
	// MaxRounds bounds the strict-improvement sweep per operation:
	// 0 means DefaultRepairRounds, negative disables the sweep entirely
	// (pure greedy insertion/deletion — useful to observe the raw
	// perturbation or to prove bit-identity of the insertion path).
	MaxRounds int

	in       Instance
	c        *climb
	present  []bool
	nPresent int

	// Damage-front scratch: epoch-marked dedup over AppendAffected
	// output, reused across operations.
	mark       []int32
	epoch      int32
	affected   []int32
	dirtyBuf   []int
	pendingBuf []int
	colTouched []bool
}

// NewRepairer validates the instance, plans the initial schedule over
// the full ground set — with the same climb as Greedy, so bit-identical
// to it — and returns the live engine holding the committed schedule.
func NewRepairer(in Instance) (*Repairer, error) {
	c, err := planClimb(in, nil)
	if err != nil {
		return nil, err
	}
	r := &Repairer{
		present:  make([]bool, in.N),
		nPresent: in.N,
		mark:     make([]int32, in.N),
	}
	for v := range r.present {
		r.present[v] = true
	}
	r.adopt(in, c)
	return r, nil
}

// adopt makes c, planned for in, the committed engine state.
func (r *Repairer) adopt(in Instance, c *climb) {
	r.in, r.c = in, c
	r.colTouched = make([]bool, len(c.oracles))
}

// utility returns the committed schedule's period utility Σ_t U(S_t)
// from the live oracles, in O(T).
func (r *Repairer) utility() float64 {
	var total float64
	for _, o := range r.c.oracles {
		total += o.Value()
	}
	return total
}

// Utility returns the committed schedule's period utility.
func (r *Repairer) Utility() float64 { return r.utility() }

// Mode returns the current regime (it can flip when UpdateRho crosses
// ρ = 1).
func (r *Repairer) Mode() Mode { return r.c.mode() }

// Period returns the current charging period.
func (r *Repairer) Period() energy.Period { return r.in.Period }

// NumPresent returns the size of the live fleet.
func (r *Repairer) NumPresent() int { return r.nPresent }

// Present reports whether sensor v is in the live fleet.
func (r *Repairer) Present(v int) bool {
	return v >= 0 && v < len(r.present) && r.present[v]
}

// Schedule materializes the committed schedule. Absent sensors carry
// the Absent marker (inactive in every slot).
func (r *Repairer) Schedule() (*Schedule, error) {
	return r.c.schedule()
}

// FullReplan computes the from-scratch ground truth for the current
// fleet and period: GreedySubset over the present set.
func (r *Repairer) FullReplan() (*Schedule, error) {
	return GreedySubset(r.in, r.present)
}

// GapVsFullReplan reports the first-class quality metric: the percent
// utility gap of the committed schedule versus the from-scratch replan,
// (U_full − U_repaired) / U_full · 100. Negative values mean the
// repaired schedule beats the fresh greedy (both are ½-approximations;
// neither dominates). The full replan costs O(fleet) — this is the
// yardstick, not the hot path.
func (r *Repairer) GapVsFullReplan() (float64, error) {
	full, err := r.FullReplan()
	if err != nil {
		return 0, err
	}
	s, err := r.Schedule()
	if err != nil {
		return 0, err
	}
	uf := full.PeriodUtility(r.in.Factory)
	ur := s.PeriodUtility(r.in.Factory)
	if !(uf > 0) {
		return 0, nil
	}
	return (uf - ur) / uf * 100, nil
}

// checkIDs validates a perturbation batch and returns it sorted
// ascending (a copy; the caller's slice is untouched). wantPresent
// selects whether the ids must currently be live (removal) or absent
// (re-activation).
func (r *Repairer) checkIDs(ids []int, wantPresent bool) ([]int, error) {
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	for k, v := range sorted {
		if v < 0 || v >= r.in.N {
			return nil, fmt.Errorf("core: sensor %d outside ground set [0,%d)", v, r.in.N)
		}
		if k > 0 && sorted[k-1] == v {
			return nil, fmt.Errorf("core: duplicate sensor %d in perturbation", v)
		}
		if r.present[v] != wantPresent {
			if wantPresent {
				return nil, fmt.Errorf("core: sensor %d is not in the live fleet", v)
			}
			return nil, fmt.Errorf("core: sensor %d is already in the live fleet", v)
		}
	}
	return sorted, nil
}

// AddSensors re-activates absent sensors and repairs the schedule: the
// batch is inserted through the same greedy loop a full plan uses
// (each sensor to its argmax slot, lowest-(v, t) ties), then the damage
// front gets a bounded strict-improvement sweep. Cost is
// O(k · T · degree) for the insertion plus the sweep — independent
// of the fleet size.
func (r *Repairer) AddSensors(ids []int) (RepairStats, error) {
	sorted, err := r.checkIDs(ids, false)
	if err != nil {
		return RepairStats{}, err
	}
	stats := RepairStats{Changed: len(sorted), UtilityBefore: r.utility()}
	if len(sorted) == 0 {
		stats.Utility = stats.UtilityBefore
		return stats, nil
	}
	c := r.c
	if c.removal {
		// A live removal-mode sensor is a member of every slot except
		// its passive one; the insertion loop picks the passive slot by
		// Remove, so start from member-everywhere — the same state the
		// full plan starts its sensors from.
		for _, v := range sorted {
			for _, o := range c.oracles {
				o.Add(v)
			}
		}
		for t := range c.oracles {
			c.refresh(t, sorted)
		}
	}
	for _, v := range sorted {
		c.assign[v] = -1
		r.present[v] = true
	}
	r.nPresent += len(sorted)
	r.pendingBuf = append(r.pendingBuf[:0], sorted...)
	if err := c.run(r.pendingBuf); err != nil {
		return RepairStats{}, err
	}
	dirty := r.damageFront(sorted)
	stats.Dirty = len(dirty)
	stats.Rounds, stats.Moves = r.sweep(dirty)
	stats.Utility = r.utility()
	return stats, nil
}

// RemoveSensors deactivates live sensors (node death, battery failure)
// and repairs the schedule: the sensors leave their oracles, only the
// touched columns are batch-refreshed, and the survivors in the damage
// front get a bounded strict-improvement sweep to close the coverage
// holes.
func (r *Repairer) RemoveSensors(ids []int) (RepairStats, error) {
	sorted, err := r.checkIDs(ids, true)
	if err != nil {
		return RepairStats{}, err
	}
	stats := RepairStats{Changed: len(sorted), UtilityBefore: r.utility()}
	if len(sorted) == 0 {
		stats.Utility = stats.UtilityBefore
		return stats, nil
	}
	// The damage front must be computed while the removed sensors are
	// still known; their incidence is static so before/after is
	// equivalent, but the front excludes non-present sensors, so take
	// it first and filter later.
	c := r.c
	for t := range r.colTouched {
		r.colTouched[t] = false
	}
	for _, v := range sorted {
		old := c.assign[v]
		if c.removal {
			// Member of every slot except the passive one.
			for t, o := range c.oracles {
				if t != old {
					o.Remove(v)
					r.colTouched[t] = true
				}
			}
		} else if old >= 0 {
			c.oracles[old].Remove(v)
			r.colTouched[old] = true
		}
		c.assign[v] = Absent
		r.present[v] = false
	}
	r.nPresent -= len(sorted)
	for t, touched := range r.colTouched {
		if touched {
			c.refresh(t, sorted)
		}
	}
	dirty := r.damageFront(sorted)
	stats.Dirty = len(dirty)
	stats.Rounds, stats.Moves = r.sweep(dirty)
	stats.Utility = r.utility()
	return stats, nil
}

// UpdateRho re-targets the engine at a new charging ratio ρ′ (weather
// drift). A ρ′ that normalizes to the same period shape is a no-op;
// any other — including drifts crossing ρ = 1, which flip the regime —
// rebuilds the plan from scratch over the present fleet (the period
// change invalidates every column at once, so there is nothing to
// localize; Full is set and the result equals GreedySubset exactly).
// The rebuild is committed only when it succeeds: on error the
// Repairer keeps its period, mode and schedule.
func (r *Repairer) UpdateRho(rho float64) (RepairStats, error) {
	p, err := energy.PeriodFromRho(rho)
	if err != nil {
		return RepairStats{}, err
	}
	stats := RepairStats{UtilityBefore: r.utility()}
	if p.Slots() == r.in.Period.Slots() && p.ActiveSlots == r.in.Period.ActiveSlots {
		stats.Utility = stats.UtilityBefore
		return stats, nil
	}
	in := r.in
	in.Period = p
	c, err := planClimb(in, r.present)
	if err != nil {
		return RepairStats{}, err
	}
	r.adopt(in, c)
	stats.Changed = r.nPresent
	stats.Full = true
	stats.Utility = r.utility()
	return stats, nil
}

// RepairAll sweeps the whole live fleet to a local-search fixed point
// (or the round bound): the post-hoc polish that upgrades the committed
// schedule to the structural ½-approximation of placement-mode fixed
// points. Changed is 0 — no fleet perturbation happened.
func (r *Repairer) RepairAll() RepairStats {
	stats := RepairStats{UtilityBefore: r.utility()}
	r.dirtyBuf = r.dirtyBuf[:0]
	for v := 0; v < r.in.N; v++ {
		if r.present[v] {
			r.dirtyBuf = append(r.dirtyBuf, v)
		}
	}
	stats.Dirty = len(r.dirtyBuf)
	stats.Rounds, stats.Moves = r.sweep(r.dirtyBuf)
	stats.Utility = r.utility()
	return stats
}

// damageFront returns the ascending list of live sensors whose
// marginals a perturbation of changed can have moved: the epoch-dedup
// union of the changed sensors' AppendAffected sets (sensors sharing a
// target), restricted to the present fleet. Oracles without the
// AffectedLister contract cannot bound the front, so the whole live
// fleet goes dirty — correct, just not localized.
func (r *Repairer) damageFront(changed []int) []int {
	r.dirtyBuf = r.dirtyBuf[:0]
	al, ok := r.c.oracles[0].(submodular.AffectedLister)
	if !ok {
		for v := 0; v < r.in.N; v++ {
			if r.present[v] {
				r.dirtyBuf = append(r.dirtyBuf, v)
			}
		}
		return r.dirtyBuf
	}
	r.epoch++
	r.affected = r.affected[:0]
	for _, v := range changed {
		r.affected = al.AppendAffected(r.affected, v)
	}
	for _, u := range r.affected {
		if r.mark[u] != r.epoch {
			r.mark[u] = r.epoch
			if r.present[u] {
				r.dirtyBuf = append(r.dirtyBuf, int(u))
			}
		}
	}
	// Degree-0 changed sensors never appear in their own affected set;
	// they are harmless to sweep (marginal 0 everywhere) but keep the
	// front well-defined by including every live changed sensor.
	for _, v := range changed {
		if r.mark[v] != r.epoch {
			r.mark[v] = r.epoch
			if r.present[v] {
				r.dirtyBuf = append(r.dirtyBuf, v)
			}
		}
	}
	sort.Ints(r.dirtyBuf)
	return r.dirtyBuf
}

// sweep runs bounded strict-improvement rounds over the dirty set,
// stopping early at a fixed point. Same move discipline as the sharded
// border-correction sweep (shard.sweepOnce), with the moves read from
// the exact margin cache instead of fresh oracle queries.
func (r *Repairer) sweep(dirty []int) (rounds, moves int) {
	maxRounds := r.MaxRounds
	if maxRounds == 0 {
		maxRounds = DefaultRepairRounds
	}
	if maxRounds < 0 || len(dirty) == 0 {
		return 0, 0
	}
	for rounds < maxRounds {
		m := r.sweepOnce(dirty)
		rounds++
		moves += m
		if m == 0 {
			break
		}
	}
	return rounds, moves
}

// sweepOnce lifts every dirty sensor out of its slot, in ascending ID
// order, and re-commits it at the strict best slot (placement: max
// gain; removal: min loss picks the passive slot). Ties favor the
// current slot, so every applied move strictly improves the period
// utility and the sweep is a monotone hill-climber.
func (r *Repairer) sweepOnce(dirty []int) int {
	c := r.c
	moves := 0
	for _, v := range dirty {
		old := c.assign[v]
		if old < 0 {
			continue // absent
		}
		// v's marginal back at the old slot is the bar to beat strictly.
		c.lift(v, old)
		bestT, bestM := old, c.cache.at(v, old)
		for t := range c.oracles {
			if t == old {
				continue
			}
			if m := c.cache.at(v, t); c.better(m, bestM) {
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
