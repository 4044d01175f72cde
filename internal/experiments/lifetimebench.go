package experiments

import (
	"fmt"

	"cool/internal/core"
	"cool/internal/energy"
	"cool/internal/geometry"
	"cool/internal/lifetime"
	"cool/internal/solar"
	"cool/internal/stats"
	"cool/internal/submodular"
	"cool/internal/wsn"
)

// This file is the cross-objective benchmark behind `coolbench -fig
// lifetime`: the same deployments and solar traces planned for the
// paper's per-slot utility objective (the greedy periodic schedule)
// and for the coverage-lifetime objective (HEF, strip-cover, and the
// exact reference on tiny instances). Every row records a verified
// lifetime — schedules re-audited by the package's feasibility
// checkers — and the run fails (LifetimeResult.verdictErr) when a
// verdict column it would write to BENCH_lifetime.json is false.

// LifetimeConfig parameterizes the lifetime benchmark.
type LifetimeConfig struct {
	// Sensors/Targets size the small scenarios (default 10/6, inside
	// the exact reference's reach). The scale scenario multiplies both
	// by ScaleUp (default 8) and drops the exact row.
	Sensors int
	Targets int
	ScaleUp int
	// Battery is the per-sensor capacity in active-slot units
	// (default 2).
	Battery float64
	// Horizon is the planning horizon in slots for the small
	// scenarios (default 12); the scale scenario uses 4×.
	Horizon int
	// Rho is the baseline charging ratio shared with the utility
	// planner (default 3: the paper's sunny testbed).
	Rho float64
	// FieldSide is the square deployment side (default 100). Degree is
	// the target mean coverage degree the sensing range is solved from
	// (default 8).
	FieldSide float64
	Degree    float64
	// Seed drives deployments.
	Seed uint64
}

func (c *LifetimeConfig) defaults() error {
	if c.Sensors == 0 {
		c.Sensors = 10
	}
	if c.Targets == 0 {
		c.Targets = 6
	}
	if c.ScaleUp == 0 {
		c.ScaleUp = 8
	}
	if c.Battery == 0 {
		c.Battery = 2
	}
	if c.Horizon == 0 {
		c.Horizon = 12
	}
	if c.Rho == 0 {
		c.Rho = 3
	}
	if c.FieldSide == 0 {
		c.FieldSide = 100
	}
	if c.Degree == 0 {
		c.Degree = 8
	}
	if c.Sensors < 4 || c.Sensors > 12 {
		return fmt.Errorf("experiments: lifetime bench wants 4..12 sensors for the exact reference, got %d", c.Sensors)
	}
	if c.Targets < 1 || c.ScaleUp < 1 || c.Battery <= 0 || c.Horizon < 4 ||
		c.Rho <= 0 || c.FieldSide <= 0 || c.Degree <= 0 {
		return fmt.Errorf("experiments: invalid lifetime bench config %+v", *c)
	}
	return nil
}

// LifetimeRow is one planner's outcome on one scenario.
type LifetimeRow struct {
	// Algorithm is "hef", "strip-cover", "lifetime-exact" or
	// "utility-greedy" (the paper's objective, executed under the same
	// energy model with an energy veto).
	Algorithm string `json:"algorithm"`
	// Lifetime is the verified covered-prefix length in slots.
	Lifetime int `json:"lifetime"`
	// Groups is the cover-group count (strip-cover only).
	Groups int `json:"groups,omitempty"`
	// Feasible records that the schedule passed the package's
	// feasibility audit (Verify for lifetime planners; the vetoed
	// executor is feasible by construction).
	Feasible bool `json:"feasible"`
	// Ns times the planning call.
	Ns int64 `json:"ns"`
}

// LifetimeGroup is one scenario: a deployment plus one point on the
// instance axes (k-coverage, heterogeneous ρ, adversarial streaks).
type LifetimeGroup struct {
	Name    string `json:"name"`
	Sensors int    `json:"sensors"`
	Targets int    `json:"targets"`
	K       int    `json:"k"`
	Horizon int    `json:"horizon"`
	// ExactRan records whether the exhaustive reference ran (tiny
	// instances only).
	ExactRan bool          `json:"exact_ran"`
	Rows     []LifetimeRow `json:"rows"`
	// SchedulesFeasible is the AND of every row's feasibility audit.
	SchedulesFeasible bool `json:"schedules_feasible"`
	// ExactIsMax records that no planner beat the exhaustive optimum
	// — the heuristics are cross-checked from below (vacuously true
	// when the exact row is absent).
	ExactIsMax bool `json:"exact_is_max"`
	// PlannersBeatUtility records that the best lifetime planner
	// sustained coverage at least as long as the utility-objective
	// schedule executed under the identical solar trace.
	PlannersBeatUtility bool `json:"planners_beat_utility"`
}

// LifetimeResult is the machine-readable summary coolbench writes to
// BENCH_lifetime.json.
type LifetimeResult struct {
	Rho     float64         `json:"rho"`
	Battery float64         `json:"battery"`
	Groups  []LifetimeGroup `json:"groups"`
}

// verdictErr names the first scenario whose verdict is false, if any,
// and fails a run in which the exact cross-check never ran.
func (r *LifetimeResult) verdictErr() error {
	exactRan := false
	for _, g := range r.Groups {
		switch {
		case !g.SchedulesFeasible:
			return falseVerdict("lifetime", "schedules_feasible", g.Name)
		case !g.ExactIsMax:
			return falseVerdict("lifetime", "exact_is_max", g.Name)
		case !g.PlannersBeatUtility:
			return falseVerdict("lifetime", "planners_beat_utility", g.Name)
		}
		exactRan = exactRan || g.ExactRan
	}
	if !exactRan {
		return falseVerdict("lifetime", "exact_ran", "every scenario")
	}
	return nil
}

// lifetimeScenario is one benchmark scenario before planning.
type lifetimeScenario struct {
	name  string
	in    lifetime.Instance
	exact bool
}

// lifetimeDeploy places sensors and targets and extracts the coverer
// sets, retrying seeds until every target has at least minCov
// coverers so the k-coverage scenarios are non-degenerate.
func lifetimeDeploy(n, m, minCov int, cfg *LifetimeConfig, seed uint64) ([]lifetime.Target, error) {
	r := sensingRange(cfg.Degree, cfg.FieldSide, n)
	for attempt := 0; attempt < 64; attempt++ {
		net, err := wsn.Deploy(wsn.DeployConfig{
			Field:   geometry.NewRect(geometry.Point{}, geometry.Point{X: cfg.FieldSide, Y: cfg.FieldSide}),
			Sensors: n,
			Targets: m,
			Range:   r,
			Layout:  wsn.LayoutUniform,
		}, stats.NewRNG(seed+uint64(attempt)))
		if err != nil {
			return nil, err
		}
		targets := make([]lifetime.Target, m)
		ok := true
		for j := 0; j < m; j++ {
			cov := net.Coverers(j)
			if len(cov) < minCov {
				ok = false
				break
			}
			targets[j] = lifetime.Target{Covers: append([]int(nil), cov...)}
		}
		if ok {
			return targets, nil
		}
	}
	return nil, fmt.Errorf("experiments: no %d-covered deployment of %d/%d found", minCov, n, m)
}

// streakScale maps a weather sequence with an injected rain streak to
// the per-slot harvest envelope, one slot per day — the adversarial
// axis: harvesting collapses to ~4%% of sunny inside the streak.
func streakScale(horizon int, seed uint64) ([]float64, error) {
	seq, err := solar.DefaultWeatherModel().Sequence(solar.WeatherSunny, horizon, stats.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	for i := horizon / 3; i < horizon/3+horizon/4 && i < len(seq); i++ {
		seq[i] = solar.WeatherRain
	}
	scale := make([]float64, len(seq))
	for i, w := range seq {
		if scale[i], err = solar.HarvestScale(w); err != nil {
			return nil, err
		}
	}
	return scale, nil
}

// lifetimeScenarios builds the benchmark's scenario set: the pure
// sensor-cover baseline, the k-coverage axis, the heterogeneous-ρ
// axis, the adversarial-streak axis, and a larger instance beyond the
// exact reference's reach.
func lifetimeScenarios(cfg *LifetimeConfig) ([]lifetimeScenario, error) {
	n, m := cfg.Sensors, cfg.Targets
	fill := func(n int, v float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = v
		}
		return xs
	}
	targets, err := lifetimeDeploy(n, m, 3, cfg, cfg.Seed)
	if err != nil {
		return nil, err
	}
	base := lifetime.Instance{
		N:        n,
		Targets:  targets,
		Horizon:  cfg.Horizon,
		Capacity: fill(n, cfg.Battery),
	}
	k2 := base
	k2.K = 2

	hetero := base
	hetero.Recharge = make([]float64, n)
	for i := range hetero.Recharge {
		// Alternate sunny single-panel (1/ρ) and half-shaded (1/2ρ)
		// harvesting — the per-sensor heterogeneous ρ axis.
		hetero.Recharge[i] = 1 / cfg.Rho
		if i%2 == 1 {
			hetero.Recharge[i] = 1 / (2 * cfg.Rho)
		}
	}

	streak := base
	streak.Recharge = fill(n, 1/cfg.Rho)
	if streak.Scale, err = streakScale(cfg.Horizon, cfg.Seed+7); err != nil {
		return nil, err
	}

	bigN, bigM := n*cfg.ScaleUp, m*cfg.ScaleUp
	bigTargets, err := lifetimeDeploy(bigN, bigM, 2, cfg, cfg.Seed+13)
	if err != nil {
		return nil, err
	}
	// Full coverage at scale: a periodic utility schedule only fields
	// ~1/(ρ+1) of the fleet per slot, so it structurally drops targets
	// within a few slots, while the lifetime planners assemble full
	// covering sets for as long as the batteries allow.
	big := lifetime.Instance{
		N:        bigN,
		Targets:  bigTargets,
		Horizon:  4 * cfg.Horizon,
		Capacity: fill(bigN, cfg.Battery),
		Recharge: fill(bigN, 1/cfg.Rho),
	}

	return []lifetimeScenario{
		{name: "sensor-cover", in: base, exact: true},
		{name: "k2-coverage", in: k2, exact: true},
		{name: "hetero-rho", in: hetero, exact: true},
		{name: "adversarial-streak", in: streak, exact: true},
		{name: "scale", in: big},
	}, nil
}

// utilityLifetime plans the scenario's fleet for the paper's per-slot
// utility objective (greedy periodic schedule at the configured ρ) and
// executes that schedule under the lifetime energy model with an
// energy veto: a scheduled sensor without the charge for a full active
// slot rests instead. The returned value is the executed schedule's
// covered-prefix length — the utility objective's answer to the
// lifetime question, under the identical solar trace.
func utilityLifetime(in *lifetime.Instance, rho float64) (int, int64, error) {
	items := make([]submodular.CoverageItem, len(in.Targets))
	for j, tg := range in.Targets {
		items[j] = submodular.CoverageItem{Value: 1, CoveredBy: tg.Covers}
	}
	u, err := submodular.NewCoverageUtility(in.N, items)
	if err != nil {
		return 0, 0, err
	}
	period, err := energy.PeriodFromRho(rho)
	if err != nil {
		return 0, 0, err
	}
	var sched *core.Schedule
	ns, err := measureRun(func() error {
		var err error
		sched, err = core.Greedy(core.Instance{
			N:       in.N,
			Period:  period,
			Factory: func() submodular.RemovalOracle { return u.Oracle() },
		})
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	b := in.Batteries()
	for t := 0; t < in.Horizon; t++ {
		var active []int
		for _, v := range sched.ActiveAt(t % period.Slots()) {
			if lifetime.CanActivate(b, v) {
				active = append(active, v)
			}
		}
		if ok, _ := in.Covered(active); !ok {
			return t, ns, nil
		}
		in.Step(b, active, t)
	}
	return in.Horizon, ns, nil
}

// lifetimeGroup plans one scenario with every competing planner and
// records the cross-checked verdicts.
func lifetimeGroup(sc lifetimeScenario, cfg *LifetimeConfig) (*LifetimeGroup, error) {
	in := sc.in
	g := &LifetimeGroup{
		Name:              sc.name,
		Sensors:           in.N,
		Targets:           len(in.Targets),
		K:                 in.Kreq(),
		Horizon:           in.Horizon,
		SchedulesFeasible: true,
		ExactIsMax:        true,
	}
	type planner struct {
		name string
		run  func(*lifetime.Instance) (*lifetime.Result, error)
	}
	planners := []planner{
		{"hef", lifetime.HEF},
		{"strip-cover", lifetime.StripCover},
	}
	if sc.exact {
		planners = append(planners, planner{"lifetime-exact", func(in *lifetime.Instance) (*lifetime.Result, error) {
			return lifetime.Exact(in, lifetime.ExactOptions{})
		}})
		g.ExactRan = true
	}
	best, exactLife := 0, -1
	for _, p := range planners {
		var res *lifetime.Result
		ns, err := measureRun(func() error {
			var err error
			res, err = p.run(&in)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", p.name, sc.name, err)
		}
		row := LifetimeRow{Algorithm: p.name, Lifetime: res.Lifetime, Groups: res.Groups, Ns: ns}
		row.Feasible = in.Verify(res) == nil
		if !row.Feasible {
			g.SchedulesFeasible = false
		}
		if res.Lifetime > best {
			best = res.Lifetime
		}
		if p.name == "lifetime-exact" {
			exactLife = res.Lifetime
		}
		g.Rows = append(g.Rows, row)
	}
	if exactLife >= 0 {
		for _, row := range g.Rows {
			if row.Lifetime > exactLife {
				g.ExactIsMax = false
			}
		}
	}

	uLife, uNs, err := utilityLifetime(&in, cfg.Rho)
	if err != nil {
		return nil, fmt.Errorf("utility baseline on %s: %w", sc.name, err)
	}
	g.Rows = append(g.Rows, LifetimeRow{
		Algorithm: "utility-greedy", Lifetime: uLife, Feasible: true, Ns: uNs,
	})
	g.PlannersBeatUtility = best >= uLife
	return g, nil
}

// LifetimeBench runs the cross-objective benchmark and returns both a
// renderable Figure and the machine-readable result.
func LifetimeBench(cfg LifetimeConfig) (*Figure, *LifetimeResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, nil, err
	}
	scenarios, err := lifetimeScenarios(&cfg)
	if err != nil {
		return nil, nil, err
	}
	res := &LifetimeResult{Rho: cfg.Rho, Battery: cfg.Battery}
	fig := &Figure{
		ID:     "lifetime-bench",
		Title:  fmt.Sprintf("Coverage lifetime: objective comparison, ρ=%.0f, battery=%.0f slots", cfg.Rho, cfg.Battery),
		XLabel: "scenario",
		YLabel: "lifetime slots",
	}
	series := map[string]*Series{}
	order := []string{"hef", "strip-cover", "lifetime-exact", "utility-greedy"}
	for _, name := range order {
		series[name] = &Series{Label: name}
	}
	for si, sc := range scenarios {
		g, err := lifetimeGroup(sc, &cfg)
		if err != nil {
			return nil, nil, err
		}
		res.Groups = append(res.Groups, *g)
		for _, row := range g.Rows {
			s := series[row.Algorithm]
			s.X = append(s.X, float64(si))
			s.Y = append(s.Y, float64(row.Lifetime))
			fig.Notes = append(fig.Notes, fmt.Sprintf(
				"%s %s: lifetime %d/%d, feasible=%v (%.3fms)",
				g.Name, row.Algorithm, row.Lifetime, g.Horizon, row.Feasible,
				float64(row.Ns)/1e6))
		}
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"%s: exact_ran=%v exact_is_max=%v planners_beat_utility=%v",
			g.Name, g.ExactRan, g.ExactIsMax, g.PlannersBeatUtility))
	}
	for _, name := range order {
		if len(series[name].X) > 0 {
			fig.Series = append(fig.Series, *series[name])
		}
	}
	if err := res.verdictErr(); err != nil {
		return nil, nil, err
	}
	return fig, res, nil
}
