package experiments

import (
	"fmt"

	"cool/internal/core"
	"cool/internal/energy"
	"cool/internal/geometry"
	"cool/internal/sim"
	"cool/internal/stats"
	"cool/internal/submodular"
	"cool/internal/wsn"
)

// AblationHetero (extension E1, paper future-work #2): a mixed fleet —
// two-panel motes (ρ=1), standard motes (ρ=3), shaded motes (ρ=5) —
// scheduled by the heterogeneity-aware greedy versus the homogeneous
// greedy forced to assume the worst-case period for everyone. Sweeps
// the shaded fraction.
func AblationHetero(cfg AblationConfig) (*Figure, error) {
	cfg.defaults()
	net, err := wsn.Deploy(wsn.DeployConfig{
		Field:   geometry.NewRect(geometry.Point{}, geometry.Point{X: cfg.FieldSide, Y: cfg.FieldSide}),
		Sensors: cfg.Sensors,
		Targets: cfg.Targets,
		Range:   cfg.Range,
	}, stats.NewRNG(cfg.Seed))
	if err != nil {
		return nil, err
	}
	u, err := wsn.BuildDetectionUtility(net, wsn.FixedProb(cfg.DetectP))
	if err != nil {
		return nil, err
	}
	factory := func() submodular.RemovalOracle { return u.Oracle() }

	rho1, err := energy.PeriodFromRho(1)
	if err != nil {
		return nil, err
	}
	rho3, err := energy.PeriodFromRho(3)
	if err != nil {
		return nil, err
	}
	rho5, err := energy.PeriodFromRho(5)
	if err != nil {
		return nil, err
	}

	hetero := Series{Label: "hetero-greedy"}
	homoWorst := Series{Label: "homogeneous-worst-case"}
	for _, shadedPct := range []int{0, 10, 20, 30, 40} {
		periods := make([]energy.Period, cfg.Sensors)
		shaded := cfg.Sensors * shadedPct / 100
		for i := range periods {
			switch {
			case i < shaded:
				periods[i] = rho5
			case i%3 == 0:
				periods[i] = rho1
			default:
				periods[i] = rho3
			}
		}
		hs, err := core.GreedyHetero(core.HeteroInstance{Periods: periods, Factory: factory})
		if err != nil {
			return nil, err
		}
		hetero.X = append(hetero.X, float64(shadedPct))
		hetero.Y = append(hetero.Y, hs.AverageUtility(factory, cfg.Targets))

		// Worst-case homogeneous: rho=5 when anyone is shaded, else 3.
		worst := rho3
		if shaded > 0 {
			worst = rho5
		}
		s, err := core.Greedy(core.Instance{N: cfg.Sensors, Period: worst, Factory: factory})
		if err != nil {
			return nil, err
		}
		homoWorst.X = append(homoWorst.X, float64(shadedPct))
		homoWorst.Y = append(homoWorst.Y, s.AverageUtility(factory, cfg.Targets))
	}
	return &Figure{
		ID:     "ablation-hetero",
		Title:  fmt.Sprintf("Heterogeneous fleet scheduling on n=%d m=%d", cfg.Sensors, cfg.Targets),
		XLabel: "shaded-percent",
		YLabel: "avg-utility",
		Series: []Series{hetero, homoWorst},
		Notes: []string{
			"hetero-greedy assigns per-sensor offsets over the hyperperiod (partition-matroid greedy, 1/2-approx)",
			"homogeneous-worst-case must adopt the slowest pattern in the fleet",
		},
	}, nil
}

// AblationAdaptive (extension E2, paper future-work #1): the online
// partial-charge greedy policy versus the rigid offline schedule under
// increasing recharge jitter (Section-V charging).
func AblationAdaptive(cfg AblationConfig) (*Figure, error) {
	cfg.defaults()
	in, err := cfg.instance(3)
	if err != nil {
		return nil, err
	}
	sched, err := core.Greedy(in)
	if err != nil {
		return nil, err
	}
	rigid := Series{Label: "rigid-schedule"}
	adaptive := Series{Label: "online-adaptive"}
	slots := 40 * in.Period.Slots()
	for _, jitter := range []float64{0, 0.1, 0.2, 0.3, 0.4} {
		charging := sim.RandomCharging{
			Period:          in.Period,
			EventRate:       8, // saturated sensing load
			EventDuration:   2,
			RechargeStdFrac: jitter + 1e-9, // 0 means "use default" in the model; keep explicit
		}
		r, err := sim.Run(sim.Config{
			NumSensors: in.N, Slots: slots,
			Policy:   sim.SchedulePolicy{Schedule: sched},
			Charging: charging,
			Factory:  in.Factory,
			Targets:  cfg.Targets,
			Seed:     cfg.Seed + 5,
		})
		if err != nil {
			return nil, err
		}
		a, err := sim.Run(sim.Config{
			NumSensors: in.N, Slots: slots,
			Policy: sim.OnlineGreedyPolicy{
				Factory: in.Factory,
				Budget:  sim.DefaultBudget(in.N, in.Period.Slots()),
			},
			Charging: charging,
			Factory:  in.Factory,
			Targets:  cfg.Targets,
			Seed:     cfg.Seed + 5,
		})
		if err != nil {
			return nil, err
		}
		rigid.X = append(rigid.X, jitter)
		rigid.Y = append(rigid.Y, r.AverageUtility)
		adaptive.X = append(adaptive.X, jitter)
		adaptive.Y = append(adaptive.Y, a.AverageUtility)
	}
	return &Figure{
		ID:     "ablation-adaptive",
		Title:  fmt.Sprintf("Partial-charge adaptive policy vs rigid schedule (n=%d m=%d)", cfg.Sensors, cfg.Targets),
		XLabel: "recharge-jitter",
		YLabel: "avg-utility",
		Series: []Series{rigid, adaptive},
		Notes: []string{
			"the adaptive policy activates partially recharged sensors as they become able (paper future-work #1)",
		},
	}, nil
}
