package experiments

import (
	"fmt"

	"cool/internal/core"
	"cool/internal/energy"
	"cool/internal/parallel"
	"cool/internal/sim"
	"cool/internal/stats"
	"cool/internal/submodular"
)

// Fig8Config parameterizes the fixed-target utility experiment.
type Fig8Config struct {
	// SensorCounts is the X axis (default 20..100 step 20, the paper's
	// sweep).
	SensorCounts []int
	// Targets is the number of co-located all-covered targets m for the
	// subfigure (1..4 in the paper).
	Targets int
	// DetectP is the per-sensor detection probability (paper: 0.4).
	DetectP float64
	// Rho is the charging ratio (paper: 3, from Tr=45min/Td=15min).
	Rho float64
	// ExactUpTo additionally computes the exact optimum for sensor
	// counts up to this bound (0 disables; the paper "enumerates all
	// possible schedulings" for its optimum reference).
	ExactUpTo int
	// SimulateDays, when positive, adds a "simulated-30day" series: the
	// greedy schedule executed through the slotted simulator over that
	// many 12-hour days with a mixed-weather sequence (sunny /
	// partly-cloudy / overcast), the regime the paper's real testbed
	// ran in. Imperfect weather delays recharges and denies scheduled
	// activations, reproducing the gap between the paper's measured
	// 0.983408764 and its 0.999380 bound at n=100.
	SimulateDays int
	// Seed drives the simulated weather sequence.
	Seed uint64
	// Workers bounds the worker pool for the per-n sweep (0 or negative
	// selects runtime.NumCPU).
	Workers int
}

func (c *Fig8Config) defaults() error {
	if len(c.SensorCounts) == 0 {
		c.SensorCounts = []int{20, 40, 60, 80, 100}
	}
	if c.Targets == 0 {
		c.Targets = 1
	}
	if c.Targets < 0 {
		return fmt.Errorf("experiments: negative target count %d", c.Targets)
	}
	if c.DetectP == 0 {
		c.DetectP = 0.4
	}
	if c.DetectP < 0 || c.DetectP > 1 {
		return fmt.Errorf("experiments: detection probability %v outside [0,1]", c.DetectP)
	}
	if c.Rho == 0 {
		c.Rho = 3
	}
	return nil
}

// fig8Utility builds the identical-coverage multi-target utility: every
// sensor covers every target with probability p.
func fig8Utility(n, m int, p float64) (*submodular.DetectionUtility, error) {
	targets := make([]submodular.DetectionTarget, m)
	for j := range targets {
		probs := make(map[int]float64, n)
		for v := 0; v < n; v++ {
			probs[v] = p
		}
		targets[j] = submodular.DetectionTarget{Weight: 1, Probs: probs}
	}
	return submodular.NewDetectionUtility(n, targets)
}

// Fig8 reproduces one subfigure of Figure 8: average utility per target
// per slot vs the number of sensors, for the greedy schedule against
// the paper's closed-form upper bound U* = 1 − (1−p)^⌈n/T⌉ (and the
// exact optimum where enumeration is feasible).
//
// Shape to reproduce: the greedy curve hugs the bound from below and
// both approach 1 as n grows; with more targets the curves only get
// closer to 1 (more sensors per slot to share).
func Fig8(cfg Fig8Config) (*Figure, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	period, err := energy.PeriodFromRho(cfg.Rho)
	if err != nil {
		return nil, err
	}
	T := period.Slots()

	// Each sensor count is an independent point; compute them on the
	// shared worker pool into index-addressed slots, then assemble the
	// series strictly in sweep order so the figure is identical for
	// every worker count.
	type fig8Point struct {
		greedy, bound float64
		hasExact      bool
		exact         float64
		hasSim        bool
		sim           float64
	}
	points := make([]fig8Point, len(cfg.SensorCounts))
	if err := parallel.For(cfg.Workers, len(cfg.SensorCounts), func(i int) error {
		n := cfg.SensorCounts[i]
		if n <= 0 {
			return fmt.Errorf("experiments: non-positive sensor count %d", n)
		}
		var pt fig8Point
		u, err := fig8Utility(n, cfg.Targets, cfg.DetectP)
		if err != nil {
			return err
		}
		in := core.Instance{
			N:       n,
			Period:  period,
			Factory: func() submodular.RemovalOracle { return u.Oracle() },
		}
		sched, err := core.Greedy(in)
		if err != nil {
			return err
		}
		pt.greedy = sched.AverageUtility(in.Factory, cfg.Targets)

		// The per-target bound is identical across targets in this
		// workload, so the per-target average bound is the single-target
		// formula.
		pt.bound, err = core.PaperUpperBound(cfg.DetectP, n, T)
		if err != nil {
			return err
		}

		if cfg.ExactUpTo > 0 && n <= cfg.ExactUpTo {
			opt, err := core.OptimalValue(in, core.ExactOptions{})
			if err != nil {
				return err
			}
			pt.hasExact = true
			pt.exact = opt / float64(T) / float64(cfg.Targets)
		}

		if cfg.SimulateDays > 0 {
			avgSim, err := fig8Simulate(u, n, cfg)
			if err != nil {
				return err
			}
			pt.hasSim = true
			pt.sim = avgSim
		}
		points[i] = pt
		return nil
	}); err != nil {
		return nil, err
	}

	greedy := Series{Label: "greedy-avg-utility"}
	bound := Series{Label: "upper-bound"}
	exact := Series{Label: "exact-optimum"}
	simulated := Series{Label: "simulated-30day"}
	for i, n := range cfg.SensorCounts {
		pt := points[i]
		greedy.X = append(greedy.X, float64(n))
		greedy.Y = append(greedy.Y, pt.greedy)
		bound.X = append(bound.X, float64(n))
		bound.Y = append(bound.Y, pt.bound)
		if pt.hasExact {
			exact.X = append(exact.X, float64(n))
			exact.Y = append(exact.Y, pt.exact)
		}
		if pt.hasSim {
			simulated.X = append(simulated.X, float64(n))
			simulated.Y = append(simulated.Y, pt.sim)
		}
	}

	fig := &Figure{
		ID:     fmt.Sprintf("fig8%c", 'a'+cfg.Targets-1),
		Title:  fmt.Sprintf("Average utility vs sensors (m=%d, p=%v, rho=%v)", cfg.Targets, cfg.DetectP, cfg.Rho),
		XLabel: "sensors",
		YLabel: "avg-utility",
		Series: []Series{greedy, bound},
	}
	if len(exact.X) > 0 {
		fig.Series = append(fig.Series, exact)
	}
	if len(simulated.X) > 0 {
		fig.Series = append(fig.Series, simulated)
	}
	last := len(greedy.Y) - 1
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"analytic greedy at n=%d: %.6f; bound %.6f (paper's 30-day testbed measured 0.983408764 vs bound 0.999380 for m=1, n=100)",
		cfg.SensorCounts[last], greedy.Y[last], bound.Y[last]))
	if len(simulated.Y) > 0 {
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"mixed-weather %d-day simulation at n=%d: %.6f (gap below the bound mirrors the paper's measurement)",
			cfg.SimulateDays, cfg.SensorCounts[last], simulated.Y[last]))
	}
	return fig, nil
}

// fig8Simulate follows the paper's testbed methodology over
// SimulateDays 12-hour working days: each day's weather sets the
// charging ratio (60% sunny ρ=3, 30% partly cloudy ρ=5, 10% overcast
// ρ=9), the schedule is re-planned for the day's estimated pattern
// ("we can dynamically choose μd and μr according to different weather
// condition"), and the day is executed under the Section-V stochastic
// charging model whose recharge-time jitter models the residual
// estimation error. Missed slots from that jitter put the measured
// curve below the closed-form bound, as in the paper's Figure 8.
func fig8Simulate(u *submodular.DetectionUtility, n int, cfg Fig8Config) (float64, error) {
	const slotsPerDay = 48 // 12 h of 15-minute slots
	rng := stats.NewRNG(cfg.Seed + uint64(n))
	factory := func() submodular.RemovalOracle { return u.Oracle() }
	var total float64
	for d := 0; d < cfg.SimulateDays; d++ {
		rho := 3.0
		switch r := rng.Float64(); {
		case r < 0.3:
			rho = 5
		case r < 0.4:
			rho = 9
		}
		period, err := energy.PeriodFromRho(rho)
		if err != nil {
			return 0, err
		}
		sched, err := core.Greedy(core.Instance{N: n, Period: period, Factory: factory})
		if err != nil {
			return 0, err
		}
		res, err := sim.Run(sim.Config{
			NumSensors: n,
			Slots:      slotsPerDay,
			Policy:     sim.SchedulePolicy{Schedule: sched},
			Charging: sim.RandomCharging{
				Period:          period,
				EventRate:       8, // continuous sensing: active slots fully drain
				EventDuration:   2,
				RechargeStdFrac: 0.15,
			},
			Factory: factory,
			Targets: cfg.Targets,
			Seed:    cfg.Seed + uint64(d)*1000 + uint64(n),
		})
		if err != nil {
			return 0, err
		}
		total += res.TotalUtility
	}
	return total / float64(cfg.SimulateDays*slotsPerDay) / float64(cfg.Targets), nil
}

// Fig8All regenerates all four subfigures (m = 1..4).
func Fig8All(base Fig8Config) ([]*Figure, error) {
	out := make([]*Figure, 0, 4)
	for m := 1; m <= 4; m++ {
		cfg := base
		cfg.Targets = m
		f, err := Fig8(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig8 m=%d: %w", m, err)
		}
		out = append(out, f)
	}
	return out, nil
}
