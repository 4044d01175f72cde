package experiments

import (
	"fmt"
	"math"

	"cool/internal/core"
	"cool/internal/energy"
	"cool/internal/geometry"
	"cool/internal/stats"
	"cool/internal/submodular"
	"cool/internal/wsn"
)

// This file is the incremental-replanning benchmark behind `coolbench
// -fig replan`: the core.Repairer's O(perturbation) repair path against
// the from-scratch greedy replan over the surviving fleet, at fleet
// sizes up to 10⁵ and perturbation sizes {1, 1%, 10%}. Every speedup is
// reported next to its quality cost — the utility gap against the full
// replan — and the run fails (ReplanResult.verdictErr) when an
// init_identical, schedules_feasible or gap_within_bound verdict it
// would write to BENCH_replan.json is false.

// ReplanGapBoundPct is the accepted utility gap (percent) of a
// repaired schedule against the from-scratch replan of the surviving
// fleet; a case beyond it records gap_within_bound=false and fails
// the run. The bound is far inside the structural 50% worst case of a
// converged local-search fixed point (DESIGN.md §5.7); in practice the
// damage-localized sweep lands within a fraction of a percent.
const ReplanGapBoundPct = 2.0

// ReplanConfig parameterizes the incremental-replanning benchmark.
type ReplanConfig struct {
	// Sizes lists the fleet sizes (default 1000, 10000, 100000).
	// Targets are Sensors/10.
	Sizes []int
	// PertFracs lists the perturbation sizes as fleet fractions; 0
	// means exactly one sensor (default 0, 0.01, 0.10).
	PertFracs []float64
	// FieldSide is the square deployment side (default 1000). Degree is
	// the target mean coverage degree; the sensing range is solved from
	// Degree = π·r²·n/|Ω| (default 10).
	FieldSide float64
	Degree    float64
	// Rho sets the recharge/discharge ratio (default 3: placement mode).
	Rho float64
	// Iters is the repair timing repetitions per point (minimum
	// reported; each repetition kills a different batch and restores it,
	// default 3).
	Iters int
	// Seed drives deployments and victim selection.
	Seed uint64
}

func (c *ReplanConfig) defaults() error {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{1000, 10000, 100000}
	}
	if len(c.PertFracs) == 0 {
		c.PertFracs = []float64{0, 0.01, 0.10}
	}
	if c.FieldSide == 0 {
		c.FieldSide = 1000
	}
	if c.Degree == 0 {
		c.Degree = 10
	}
	if c.Rho == 0 {
		c.Rho = 3
	}
	if c.Iters == 0 {
		c.Iters = 3
	}
	for _, n := range c.Sizes {
		if n < 100 {
			return fmt.Errorf("experiments: replan bench size %d too small", n)
		}
	}
	for _, f := range c.PertFracs {
		if f < 0 || f > 0.5 {
			return fmt.Errorf("experiments: replan perturbation fraction %v outside [0, 0.5]", f)
		}
	}
	if c.Iters < 1 || c.FieldSide <= 0 || c.Degree <= 0 || c.Rho <= 0 {
		return fmt.Errorf("experiments: invalid replan bench config %+v", *c)
	}
	return nil
}

// ReplanCase is one (size, perturbation) measurement: one kill batch
// repaired incrementally versus the from-scratch replan of the
// survivors.
type ReplanCase struct {
	// Killed is the perturbation size in sensors.
	Killed int `json:"killed"`
	// Dirty is the damage-front size the repair actually swept.
	Dirty  int `json:"dirty"`
	Rounds int `json:"rounds"`
	Moves  int `json:"moves"`
	// NsRepair times the RemoveSensors call (localization, batch sparse
	// refresh, bounded sweep); NsFull times the from-scratch greedy over
	// the surviving fleet.
	NsRepair int64   `json:"ns_repair"`
	NsFull   int64   `json:"ns_full"`
	Speedup  float64 `json:"speedup_vs_full"`
	// GapPct is the repaired schedule's utility shortfall versus the
	// full replan in percent (negative: repair beat the fresh greedy);
	// GapWithinBound records GapPct <= ReplanGapBoundPct.
	GapPct         float64 `json:"utility_gap_pct"`
	GapWithinBound bool    `json:"gap_within_bound"`
	// SchedulesFeasible records that the repaired schedule passed
	// CheckFeasible for the period after every repetition.
	SchedulesFeasible bool `json:"schedules_feasible"`
}

// ReplanGroup is the perturbation sweep at one fleet size.
type ReplanGroup struct {
	Sensors int `json:"sensors"`
	Targets int `json:"targets"`
	// NsPlan times the initial NewRepairer plan (the cost the repair
	// path amortizes away).
	NsPlan int64 `json:"ns_plan"`
	// InitIdentical records that the Repairer's initial schedule is
	// bit-identical to the one-shot greedy.
	InitIdentical bool         `json:"init_identical"`
	Cases         []ReplanCase `json:"cases"`
}

// ReplanResult is the machine-readable summary coolbench writes to
// BENCH_replan.json.
type ReplanResult struct {
	FieldSide   float64       `json:"field_side"`
	Degree      float64       `json:"degree"`
	Rho         float64       `json:"rho"`
	GapBoundPct float64       `json:"gap_bound_pct"`
	Groups      []ReplanGroup `json:"groups"`
}

// verdictErr names the first case whose verdict is false, if any.
func (r *ReplanResult) verdictErr() error {
	for _, g := range r.Groups {
		if !g.InitIdentical {
			return falseVerdict("replan", "init_identical", fmt.Sprintf("n=%d", g.Sensors))
		}
		for _, c := range g.Cases {
			where := fmt.Sprintf("n=%d killed=%d", g.Sensors, c.Killed)
			if !c.SchedulesFeasible {
				return falseVerdict("replan", "schedules_feasible", where)
			}
			if !c.GapWithinBound {
				return falseVerdict("replan", "gap_within_bound", where)
			}
		}
	}
	return nil
}

// replanInstance deploys a uniform field and builds the detection
// instance (FixedProb 0.4), solving the sensing range from the target
// coverage degree — the same geometry the shard bench uses.
func replanInstance(n int, cfg *ReplanConfig, period energy.Period, seed uint64) (core.Instance, error) {
	m := n / 10
	r := sensingRange(cfg.Degree, cfg.FieldSide, n)
	net, err := wsn.Deploy(wsn.DeployConfig{
		Field:   geometry.NewRect(geometry.Point{}, geometry.Point{X: cfg.FieldSide, Y: cfg.FieldSide}),
		Sensors: n,
		Targets: m,
		Range:   r,
		Layout:  wsn.LayoutUniform,
	}, stats.NewRNG(seed))
	if err != nil {
		return core.Instance{}, err
	}
	const p = 0.4
	tl := make([]submodular.DetectionTarget, m)
	for j := 0; j < m; j++ {
		probs := make(map[int]float64)
		for _, i := range net.Coverers(j) {
			probs[i] = p
		}
		tl[j] = submodular.DetectionTarget{Weight: net.Target(j).Weight, Probs: probs}
	}
	u, err := submodular.NewDetectionUtility(n, tl)
	if err != nil {
		return core.Instance{}, err
	}
	return core.Instance{
		N:       n,
		Period:  period,
		Factory: func() submodular.RemovalOracle { return u.Oracle() },
	}, nil
}

func sensingRange(degree, side float64, n int) float64 {
	return math.Sqrt(degree * side * side / (math.Pi * float64(n)))
}

// pickVictims draws k distinct live sensor ids.
func pickVictims(rng *stats.RNG, r *core.Repairer, n, k int) []int {
	victims := make([]int, 0, k)
	seen := make(map[int]bool, k)
	for len(victims) < k {
		v := rng.Intn(n)
		if !seen[v] && r.Present(v) {
			seen[v] = true
			victims = append(victims, v)
		}
	}
	return victims
}

// replanGroup sweeps the perturbation sizes at one fleet size. Each
// case kills a batch, times the incremental repair against the
// from-scratch replan of the survivors, records the utility gap and
// feasibility verdicts, then restores the batch so the next case
// starts from a full fleet.
func replanGroup(n int, cfg *ReplanConfig, period energy.Period) (*ReplanGroup, error) {
	in, err := replanInstance(n, cfg, period, cfg.Seed+uint64(n))
	if err != nil {
		return nil, err
	}
	group := &ReplanGroup{Sensors: n, Targets: n / 10}

	var rep *core.Repairer
	group.NsPlan, err = measureRun(func() error {
		rep, err = core.NewRepairer(in)
		return err
	})
	if err != nil {
		return nil, err
	}
	direct, err := core.Greedy(in)
	if err != nil {
		return nil, err
	}
	initial, err := rep.Schedule()
	if err != nil {
		return nil, err
	}
	group.InitIdentical = assignEqual(initial.Assignment(), direct.Assignment())

	rng := stats.NewRNG(cfg.Seed ^ uint64(n))
	for _, frac := range cfg.PertFracs {
		k := int(frac * float64(n))
		if k < 1 {
			k = 1
		}
		iters := cfg.Iters
		if n > 10000 {
			iters = 1
		}
		c := ReplanCase{Killed: k, SchedulesFeasible: true, GapWithinBound: true}
		var bestRepair, bestFull int64 = -1, -1
		for it := 0; it < iters; it++ {
			victims := pickVictims(rng, rep, n, k)
			var st core.RepairStats
			nsRepair, err := measureRun(func() error {
				var err error
				st, err = rep.RemoveSensors(victims)
				return err
			})
			if err != nil {
				return nil, err
			}
			s, err := rep.Schedule()
			if err != nil {
				return nil, err
			}
			if err := s.CheckFeasible(period); err != nil {
				c.SchedulesFeasible = false
			}
			present := make([]bool, n)
			for v := 0; v < n; v++ {
				present[v] = rep.Present(v)
			}
			var full *core.Schedule
			nsFull, err := measureRun(func() error {
				var err error
				full, err = core.GreedySubset(in, present)
				return err
			})
			if err != nil {
				return nil, err
			}
			uf := full.PeriodUtility(in.Factory)
			ur := s.PeriodUtility(in.Factory)
			gap := 0.0
			if uf > 0 {
				gap = (uf - ur) / uf * 100
			}
			if it == 0 || gap > c.GapPct {
				c.GapPct = gap
			}
			if gap > ReplanGapBoundPct {
				c.GapWithinBound = false
			}
			if bestRepair < 0 || nsRepair < bestRepair {
				bestRepair = nsRepair
				c.Dirty, c.Rounds, c.Moves = st.Dirty, st.Rounds, st.Moves
			}
			if bestFull < 0 || nsFull < bestFull {
				bestFull = nsFull
			}
			// Restore the fleet for the next repetition/case.
			if _, err := rep.AddSensors(victims); err != nil {
				return nil, err
			}
		}
		c.NsRepair, c.NsFull = bestRepair, bestFull
		c.Speedup = float64(bestFull) / float64(bestRepair)
		group.Cases = append(group.Cases, c)
	}
	return group, nil
}

// ReplanBench runs the incremental-replanning benchmark and returns
// both a renderable Figure and the machine-readable result.
func ReplanBench(cfg ReplanConfig) (*Figure, *ReplanResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, nil, err
	}
	period, err := energy.PeriodFromRho(cfg.Rho)
	if err != nil {
		return nil, nil, err
	}
	res := &ReplanResult{
		FieldSide:   cfg.FieldSide,
		Degree:      cfg.Degree,
		Rho:         cfg.Rho,
		GapBoundPct: ReplanGapBoundPct,
	}
	fig := &Figure{
		ID: "replan-bench",
		Title: fmt.Sprintf("Incremental replanning: repair vs from-scratch greedy, degree≈%.0f",
			cfg.Degree),
		XLabel: "killed sensors",
		YLabel: "repair seconds",
	}
	for _, n := range cfg.Sizes {
		group, err := replanGroup(n, &cfg, period)
		if err != nil {
			return nil, nil, err
		}
		res.Groups = append(res.Groups, *group)
		s := Series{Label: fmt.Sprintf("n=%d", n)}
		for _, c := range group.Cases {
			s.X = append(s.X, float64(c.Killed))
			s.Y = append(s.Y, float64(c.NsRepair)/1e9)
			fig.Notes = append(fig.Notes, fmt.Sprintf(
				"n=%d kill=%d: repair %.3fms vs full %.3fms (%.1fx), dirty %d, %d moves/%d rounds, gap %.3f%%, feasible=%v",
				n, c.Killed, float64(c.NsRepair)/1e6, float64(c.NsFull)/1e6, c.Speedup,
				c.Dirty, c.Moves, c.Rounds, c.GapPct, c.SchedulesFeasible))
		}
		fig.Series = append(fig.Series, s)
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"n=%d initial plan %.3fs, init_identical=%v", n, float64(group.NsPlan)/1e9, group.InitIdentical))
	}
	if err := res.verdictErr(); err != nil {
		return nil, nil, err
	}
	return fig, res, nil
}
