package experiments

import (
	"fmt"

	"cool/internal/core"
	"cool/internal/energy"
	"cool/internal/geometry"
	"cool/internal/parallel"
	"cool/internal/stats"
	"cool/internal/submodular"
	"cool/internal/wsn"
)

// SensitivityP sweeps the per-sensor detection probability p on the
// Figure-9 workload, isolating how much of the achieved utility comes
// from sensing quality versus scheduling.
func SensitivityP(cfg AblationConfig) (*Figure, error) {
	cfg.defaults()
	period, err := energy.PeriodFromRho(3)
	if err != nil {
		return nil, err
	}
	net, err := wsn.Deploy(wsn.DeployConfig{
		Field:   geometry.NewRect(geometry.Point{}, geometry.Point{X: cfg.FieldSide, Y: cfg.FieldSide}),
		Sensors: cfg.Sensors,
		Targets: cfg.Targets,
		Range:   cfg.Range,
	}, stats.NewRNG(cfg.Seed))
	if err != nil {
		return nil, err
	}
	// Every p shares the read-only deployment; each point runs on the
	// shared worker pool and writes its index-addressed slot.
	ps := []float64{0.1, 0.2, 0.4, 0.6, 0.8, 0.95}
	ys := make([]float64, len(ps))
	if err := parallel.For(cfg.Workers, len(ps), func(i int) error {
		u, err := wsn.BuildDetectionUtility(net, wsn.FixedProb(ps[i]))
		if err != nil {
			return err
		}
		in := core.Instance{
			N:       cfg.Sensors,
			Period:  period,
			Factory: func() submodular.RemovalOracle { return u.Oracle() },
		}
		sched, err := core.Greedy(in)
		if err != nil {
			return err
		}
		ys[i] = sched.AverageUtility(in.Factory, cfg.Targets)
		return nil
	}); err != nil {
		return nil, err
	}
	s := Series{Label: "greedy-avg-utility", X: ps, Y: ys}
	return &Figure{
		ID:     "sensitivity-p",
		Title:  fmt.Sprintf("Detection probability sweep (n=%d m=%d)", cfg.Sensors, cfg.Targets),
		XLabel: "p",
		YLabel: "avg-utility",
		Series: []Series{s},
	}, nil
}

// SensitivityRange sweeps the sensing radius, showing the coverage
// density crossover: below a critical radius targets lose all
// coverage; beyond it the utility saturates toward the detection cap.
func SensitivityRange(cfg AblationConfig) (*Figure, error) {
	cfg.defaults()
	period, err := energy.PeriodFromRho(3)
	if err != nil {
		return nil, err
	}
	// Every radius deploys its own network from a fresh RNG of the same
	// seed, so the points are fully independent and pool-friendly.
	radii := []float64{25, 50, 75, 100, 150, 200}
	ys := make([]float64, len(radii))
	frac := make([]float64, len(radii))
	if err := parallel.For(cfg.Workers, len(radii), func(i int) error {
		net, err := wsn.Deploy(wsn.DeployConfig{
			Field:   geometry.NewRect(geometry.Point{}, geometry.Point{X: cfg.FieldSide, Y: cfg.FieldSide}),
			Sensors: cfg.Sensors,
			Targets: cfg.Targets,
			Range:   radii[i],
		}, stats.NewRNG(cfg.Seed))
		if err != nil {
			return err
		}
		u, err := wsn.BuildDetectionUtility(net, wsn.FixedProb(cfg.DetectP))
		if err != nil {
			return err
		}
		in := core.Instance{
			N:       cfg.Sensors,
			Period:  period,
			Factory: func() submodular.RemovalOracle { return u.Oracle() },
		}
		sched, err := core.Greedy(in)
		if err != nil {
			return err
		}
		ys[i] = sched.AverageUtility(in.Factory, cfg.Targets)
		frac[i] = 1 - float64(len(net.UncoveredTargets()))/float64(cfg.Targets)
		return nil
	}); err != nil {
		return nil, err
	}
	s := Series{Label: "greedy-avg-utility", X: radii, Y: ys}
	covered := Series{Label: "coverable-target-fraction", X: append([]float64(nil), radii...), Y: frac}
	return &Figure{
		ID:     "sensitivity-range",
		Title:  fmt.Sprintf("Sensing radius sweep (n=%d m=%d, p=%v)", cfg.Sensors, cfg.Targets, cfg.DetectP),
		XLabel: "range",
		YLabel: "value",
		Series: []Series{s, covered},
	}, nil
}
