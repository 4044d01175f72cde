package cool

import (
	"errors"
	"fmt"

	"cool/internal/lifetime"
	"cool/internal/solar"
)

// Lifetime objective: instead of maximizing per-period utility, keep
// the field covered for as many consecutive slots as possible under
// per-sensor battery budgets (the Restricted Strip Covering / Sensor
// Cover view of the same fleet). These aliases re-export the
// internal/lifetime vocabulary so callers stay within this package.
type (
	// LifetimeInstance is a coverage-lifetime problem: targets with
	// coverer lists, battery budgets and a harvesting envelope.
	LifetimeInstance = lifetime.Instance
	// LifetimeTarget is one target and the sensors that cover it.
	LifetimeTarget = lifetime.Target
	// LifetimeSchedule is a finite per-slot activation schedule.
	LifetimeSchedule = lifetime.Schedule
	// LifetimeResult is a schedule with its verified coverage lifetime.
	LifetimeResult = lifetime.Result
	// LifetimeExactOptions tunes the exhaustive lifetime reference.
	LifetimeExactOptions = lifetime.ExactOptions
)

// LifetimeOptions configures the lifetime objective of Planner.Plan.
// The coverage structure (which sensors cover which targets) always
// comes from the planner's utility, which must be one of the
// weighted-coverage families (NewTargetCountUtility, NewAreaUtility or
// NewCoverageUtility); the probabilistic detection utility has no
// binary coverage semantics and is rejected.
//
// The zero value is usable: every field has a documented default.
type LifetimeOptions struct {
	// Horizon is the number of slots to survive (default: 4 charging
	// periods, 4·Period.Slots()).
	Horizon int
	// K requires every target to be covered by at least K active
	// sensors per slot (default 1).
	K int
	// Threshold is the fraction of targets that must meet their
	// k-requirement for a slot to count as covered (default 1: all).
	Threshold float64
	// Initial, Capacity and Recharge are per-sensor battery budgets in
	// active-slot units: an active slot costs 1, a rest slot harvests
	// Recharge[i] scaled by the weather envelope. Defaults: Capacity 1,
	// Initial full, and Recharge 1/ρ — the planner's charging ratio
	// says a sensor needs ρ rest slots to fund one active slot, so its
	// homogeneous per-slot harvest is 1/ρ. Pass an explicit Recharge
	// vector for heterogeneous per-sensor ρ.
	Initial, Capacity, Recharge []float64
	// Scale is the per-slot harvesting envelope, tiled over the
	// horizon (default all 1). Zero entries are adversarial dead
	// streaks. Mutually exclusive with Weather.
	Scale []float64
	// Weather derives the envelope from a weather sequence instead
	// (one class per slot, e.g. a WeatherSequence draw): each class
	// maps to its mean irradiance relative to sunny, so WeatherRain
	// slots are ~0.04 — an adversarial streak. Mutually exclusive with
	// Scale.
	Weather []Weather
}

// NewLifetimeSchedule builds a lifetime schedule from per-slot active
// sets (validated, copied, sorted).
func NewLifetimeSchedule(n int, slots [][]int) (*LifetimeSchedule, error) {
	return lifetime.NewSchedule(n, slots)
}

// WeatherHarvestScale maps a weather sequence to the per-slot
// harvesting envelope of the lifetime model: each class's mean
// irradiance relative to a sunny slot.
func WeatherHarvestScale(weather []Weather) ([]float64, error) {
	if len(weather) == 0 {
		return nil, errors.New("cool: empty weather sequence")
	}
	scale := make([]float64, len(weather))
	for i, w := range weather {
		s, err := solar.HarvestScale(w)
		if err != nil {
			return nil, err
		}
		scale[i] = s
	}
	return scale, nil
}

// InjectWeatherStreak returns a copy of the sequence with slots
// [start, start+length) overwritten by the given class — the
// adversarial-streak generator used by the lifetime scenarios (inject
// WeatherRain into a WeatherSequence draw to starve harvesting).
func InjectWeatherStreak(seq []Weather, start, length int, w Weather) ([]Weather, error) {
	if start < 0 || length < 0 || start+length > len(seq) {
		return nil, fmt.Errorf("cool: streak [%d,%d) outside sequence of %d", start, start+length, len(seq))
	}
	out := append([]Weather(nil), seq...)
	for i := start; i < start+length; i++ {
		out[i] = w
	}
	return out, nil
}

// lifetimeInstance compiles the planner's coverage structure and the
// options into a lifetime.Instance.
func (p *Planner) lifetimeInstance(opts *LifetimeOptions) (*LifetimeInstance, error) {
	if opts == nil {
		opts = &LifetimeOptions{}
	}
	cov, ok := utilityAsLinearizable(p.utility)
	if !ok {
		return nil, errors.New("cool: lifetime objective requires a weighted-coverage utility (target-count, area or coverage)")
	}
	items := cov.Items()
	targets := make([]LifetimeTarget, len(items))
	for j, it := range items {
		targets[j] = LifetimeTarget{Covers: append([]int(nil), it.CoveredBy...)}
	}
	horizon := opts.Horizon
	if horizon == 0 {
		horizon = 4 * p.period.Slots()
	}
	scale := opts.Scale
	if len(opts.Weather) > 0 {
		if len(scale) > 0 {
			return nil, errors.New("cool: LifetimeOptions.Scale and Weather are mutually exclusive")
		}
		var err error
		scale, err = WeatherHarvestScale(opts.Weather)
		if err != nil {
			return nil, err
		}
	}
	recharge := opts.Recharge
	if recharge == nil {
		// One active slot costs ρ rest slots of harvesting.
		rho := p.period.Rho()
		recharge = make([]float64, p.inst.N)
		for i := range recharge {
			recharge[i] = 1 / rho
		}
	}
	in := &LifetimeInstance{
		N:         p.inst.N,
		Targets:   targets,
		K:         opts.K,
		Threshold: opts.Threshold,
		Horizon:   horizon,
		Initial:   opts.Initial,
		Capacity:  opts.Capacity,
		Recharge:  recharge,
		Scale:     scale,
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// planLifetime computes a lifetime schedule with the requested
// algorithm (AlgorithmHEF, AlgorithmStripCover or
// AlgorithmLifetimeExact; "" = HEF): the lifetime half of Plan.
func (p *Planner) planLifetime(req PlanRequest) (*LifetimeResult, error) {
	in, err := p.lifetimeInstance(req.Lifetime)
	if err != nil {
		return nil, err
	}
	var res *LifetimeResult
	switch req.Algorithm {
	case "", AlgorithmHEF:
		res, err = lifetime.HEF(in)
	case AlgorithmStripCover:
		res, err = lifetime.StripCover(in)
	case AlgorithmLifetimeExact:
		res, err = lifetime.Exact(in, lifetime.ExactOptions{MaxNodes: req.MaxNodes})
	default:
		return nil, fmt.Errorf("cool: algorithm %q does not plan the lifetime objective", req.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	// Every lifetime planner's output is re-verified against the
	// independent feasibility checker before it leaves the facade.
	if err := in.Verify(res); err != nil {
		return nil, fmt.Errorf("cool: %s produced an invalid schedule: %w", res.Algorithm, err)
	}
	return res, nil
}

// LifetimeOf evaluates the verified coverage lifetime of an arbitrary
// lifetime schedule under the planner's coverage structure and the
// given options (battery feasibility is checked first).
func (p *Planner) LifetimeOf(s *LifetimeSchedule, opts *LifetimeOptions) (int, error) {
	in, err := p.lifetimeInstance(opts)
	if err != nil {
		return 0, err
	}
	if err := in.CheckBatteryFeasible(s); err != nil {
		return 0, err
	}
	return in.Lifetime(s), nil
}
