package cool

import "cool/internal/core"

// RepairStats reports the cost and effect of one incremental repair
// operation (see core.RepairStats).
type RepairStats = core.RepairStats

// Incremental is the online replanning handle: it owns a committed
// schedule plus the live per-slot oracle state, and repairs the
// schedule after fleet perturbations in time proportional to the
// perturbation's blast radius instead of replanning the whole fleet.
//
// Obtain one from Planner.Incremental (which plans the initial
// schedule, bit-identically to Plan with AlgorithmGreedy). The three perturbation
// operations — KillSensors (node death), DeploySensors (reserve
// activation or repaired nodes returning) and UpdateRho (weather
// drift) — each leave the committed schedule feasible for the current
// period; Gap reports the utility distance from the from-scratch
// ground truth. An Incremental is not safe for concurrent use.
type Incremental struct {
	r *Repairer
}

// Repairer re-exports the core incremental engine for advanced
// composition (per-shard repairers, custom sweep budgets).
type Repairer = core.Repairer

// Incremental plans an initial schedule over the planner's full ground
// set and returns the live replanning handle.
func (p *Planner) Incremental() (*Incremental, error) {
	r, err := core.NewRepairer(p.inst)
	if err != nil {
		return nil, err
	}
	return &Incremental{r: r}, nil
}

// KillSensors removes live sensors from the fleet (battery failure,
// node death) and repairs the coverage holes with a bounded
// strict-improvement sweep over the damage front.
func (inc *Incremental) KillSensors(ids []int) (RepairStats, error) {
	return inc.r.RemoveSensors(ids)
}

// DeploySensors re-activates absent sensors — a reserve pool planned
// into the ground set, or previously killed nodes coming back — and
// integrates them through the same greedy insertion a full plan uses.
func (inc *Incremental) DeploySensors(ids []int) (RepairStats, error) {
	return inc.r.AddSensors(ids)
}

// UpdateRho re-targets the schedule at a new charging ratio ρ′. Drifts
// that keep the normalized period shape are no-ops; others — including
// drifts across ρ = 1, which flip the scheduling regime — rebuild the
// plan over the surviving fleet (Full is set in the stats).
func (inc *Incremental) UpdateRho(rho float64) (RepairStats, error) {
	return inc.r.UpdateRho(rho)
}

// RepairAll sweeps the whole live fleet to a local-search fixed point
// (or the round bound) — the polish that carries the structural
// ½-approximation guarantee for placement-mode fixed points.
func (inc *Incremental) RepairAll() RepairStats { return inc.r.RepairAll() }

// Schedule materializes the committed schedule. Absent sensors carry
// core.Absent and are inactive in every slot.
func (inc *Incremental) Schedule() (*Schedule, error) { return inc.r.Schedule() }

// Utility returns the committed schedule's period utility, maintained
// incrementally in O(T).
func (inc *Incremental) Utility() float64 { return inc.r.Utility() }

// Gap computes the percent utility gap versus a from-scratch replan of
// the surviving fleet — the first-class quality metric. Negative means
// the repaired schedule beats the fresh greedy. This evaluates a full
// plan (O(fleet)); it is the yardstick, not the hot path.
func (inc *Incremental) Gap() (float64, error) { return inc.r.GapVsFullReplan() }

// FullReplan computes the from-scratch ground-truth schedule for the
// current fleet and period.
func (inc *Incremental) FullReplan() (*Schedule, error) { return inc.r.FullReplan() }

// Mode returns the current scheduling regime (it can flip when
// UpdateRho crosses ρ = 1).
func (inc *Incremental) Mode() Mode { return inc.r.Mode() }

// Period returns the current charging period.
func (inc *Incremental) Period() Period { return inc.r.Period() }

// NumPresent returns the size of the live fleet.
func (inc *Incremental) NumPresent() int { return inc.r.NumPresent() }

// Present reports whether sensor v is in the live fleet.
func (inc *Incremental) Present(v int) bool { return inc.r.Present(v) }

// Engine exposes the underlying core.Repairer (e.g. to tune MaxRounds).
func (inc *Incremental) Engine() *Repairer { return inc.r }
