package cool

import (
	"fmt"

	"cool/internal/core"
	"cool/internal/stats"
)

// Objective selects what a plan optimizes: the paper's per-period
// submodular utility, or coverage lifetime under battery budgets.
type Objective = core.Objective

// Objective constants. The zero value of PlanRequest.Objective means
// ObjectiveUtility, so existing callers and wire clients keep their
// behavior without naming an objective.
const (
	// ObjectiveUtility maximizes average per-slot utility over one
	// charging period (Section IV of the paper).
	ObjectiveUtility = core.ObjectiveUtility
	// ObjectiveLifetime maximizes the number of consecutive slots the
	// coverage requirement holds under battery budgets.
	ObjectiveLifetime = core.ObjectiveLifetime
)

// ParseObjective parses an objective name; the empty string means
// ObjectiveUtility (the wire and CLI default).
func ParseObjective(s string) (Objective, error) { return core.ParseObjective(s) }

// Algorithm names a planning engine accepted by Planner.Plan.
type Algorithm string

// Algorithms for the utility objective.
const (
	// AlgorithmGreedy is the paper's greedy hill-climbing scheme
	// (Algorithm 1 / its removal form), the default under
	// ObjectiveUtility.
	AlgorithmGreedy Algorithm = "greedy"
	// AlgorithmLazyGreedy plans through the AlgorithmGreedy engine and
	// returns its schedule; the name stays so that callers requesting
	// the lazy greedy keep working.
	AlgorithmLazyGreedy Algorithm = "lazy-greedy"
	// AlgorithmParallelLazyGreedy, like AlgorithmLazyGreedy, plans
	// through the AlgorithmGreedy engine and returns its schedule.
	AlgorithmParallelLazyGreedy Algorithm = "parallel-lazy-greedy"
	// AlgorithmExact is the branch-and-bound optimum (small instances).
	AlgorithmExact Algorithm = "exact"
	// AlgorithmLPRound is LP relaxation + randomized rounding.
	AlgorithmLPRound Algorithm = "lp-round"
	// AlgorithmLPRoundDeterministic derandomizes the rounding by
	// conditional expectations.
	AlgorithmLPRoundDeterministic Algorithm = "lp-round-det"
)

// Algorithms for the lifetime objective.
const (
	// AlgorithmHEF is the high-energy-first lifetime scheduler: each
	// slot drafts the highest-charge coverers. Default under
	// ObjectiveLifetime.
	AlgorithmHEF Algorithm = "hef"
	// AlgorithmStripCover rotates greedy disjoint cover groups, the
	// Restricted Strip Covering shift discipline.
	AlgorithmStripCover Algorithm = "strip-cover"
	// AlgorithmLifetimeExact is the exhaustive lifetime reference
	// (tiny instances only).
	AlgorithmLifetimeExact Algorithm = "lifetime-exact"
)

// PlanRequest selects an objective, an algorithm and its options for
// one Planner.Plan call. The zero value plans the utility objective
// with the paper's greedy algorithm.
type PlanRequest struct {
	// Algorithm names the engine ("" = AlgorithmGreedy under the
	// utility objective, AlgorithmHEF under the lifetime objective).
	Algorithm Algorithm
	// Objective selects what to optimize (zero = ObjectiveUtility).
	Objective Objective
	// MaxNodes bounds the branch-and-bound search of AlgorithmExact
	// and the exhaustive search of AlgorithmLifetimeExact (0 = each
	// engine's default budget); other engines ignore it.
	MaxNodes int64
	// Seed drives the randomized rounding of AlgorithmLPRound; other
	// engines ignore it.
	Seed uint64
	// Lifetime configures the lifetime objective (nil = defaults);
	// the utility objective rejects a non-nil value.
	Lifetime *LifetimeOptions
}

// PlanResult is the outcome of one Planner.Plan call. Exactly one of
// Schedule (utility objective) and Lifetime (lifetime objective) is
// set.
type PlanResult struct {
	// Algorithm and Objective echo the resolved request (defaults
	// filled in).
	Algorithm Algorithm
	Objective Objective
	// Schedule is the periodic activation schedule (utility objective).
	Schedule *Schedule
	// LPBound is the LP optimum, a valid upper bound on any schedule's
	// period utility. Set only by the LP rounding algorithms.
	LPBound float64
	// Lifetime is the verified lifetime schedule (lifetime objective).
	Lifetime *LifetimeResult
}

// Plan computes a schedule for the requested objective with the
// requested algorithm. It is the single planning entry point.
func (p *Planner) Plan(req PlanRequest) (*PlanResult, error) {
	obj := req.Objective
	if obj == 0 {
		obj = ObjectiveUtility
	}
	if !obj.Valid() {
		return nil, fmt.Errorf("cool: unknown objective %d", int(obj))
	}
	switch obj {
	case ObjectiveLifetime:
		res, err := p.planLifetime(req)
		if err != nil {
			return nil, err
		}
		return &PlanResult{
			Algorithm: Algorithm(res.Algorithm),
			Objective: ObjectiveLifetime,
			Lifetime:  res,
		}, nil
	default:
		return p.planUtility(req)
	}
}

func (p *Planner) planUtility(req PlanRequest) (*PlanResult, error) {
	if req.Lifetime != nil {
		return nil, fmt.Errorf("cool: LifetimeOptions set but objective is %v", ObjectiveUtility)
	}
	alg := req.Algorithm
	if alg == "" {
		alg = AlgorithmGreedy
	}
	res := &PlanResult{Algorithm: alg, Objective: ObjectiveUtility}
	var err error
	switch alg {
	case AlgorithmGreedy, AlgorithmLazyGreedy, AlgorithmParallelLazyGreedy:
		res.Schedule, err = core.Greedy(p.inst)
	case AlgorithmExact:
		res.Schedule, err = core.Exact(p.inst, core.ExactOptions{MaxNodes: req.MaxNodes})
	case AlgorithmLPRound:
		cov, ok := utilityAsLinearizable(p.utility)
		if !ok {
			return nil, fmt.Errorf("cool: %s requires a weighted-coverage utility", alg)
		}
		if core.ModeFor(p.period) != core.ModePlacement {
			return nil, fmt.Errorf("cool: %s requires a placement-mode period (ρ ≥ 1)", alg)
		}
		res.Schedule, res.LPBound, err = core.LPRound(cov, p.period.Slots(), stats.NewRNG(req.Seed), core.RoundingOptions{})
	case AlgorithmLPRoundDeterministic:
		cov, ok := utilityAsLinearizable(p.utility)
		if !ok {
			return nil, fmt.Errorf("cool: %s requires a weighted-coverage utility", alg)
		}
		if core.ModeFor(p.period) != core.ModePlacement {
			return nil, fmt.Errorf("cool: %s requires a placement-mode period (ρ ≥ 1)", alg)
		}
		res.Schedule, res.LPBound, err = core.LPRoundConditional(cov, p.period.Slots())
	case AlgorithmHEF, AlgorithmStripCover, AlgorithmLifetimeExact:
		return nil, fmt.Errorf("cool: algorithm %q plans the lifetime objective; set PlanRequest.Objective", alg)
	default:
		return nil, fmt.Errorf("cool: unknown algorithm %q", alg)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}
