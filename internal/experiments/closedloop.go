package experiments

import (
	"fmt"

	"cool/internal/controller"
	"cool/internal/core"
	"cool/internal/energy"
	"cool/internal/geometry"
	"cool/internal/sim"
	"cool/internal/solar"
	"cool/internal/stats"
	"cool/internal/submodular"
	"cool/internal/wsn"
)

// ClosedLoopExperiment quantifies the value of the paper's short-horizon
// re-planning: a month of Markov-sampled weather lived through (a) the
// closed-loop controller that re-estimates the pattern and re-plans per
// day, versus (b) a static schedule planned once for sunny weather and
// never updated. The static plan mis-times activations whenever the
// real recharge is slower, losing utility the controller recovers.
func ClosedLoopExperiment(cfg AblationConfig) (*Figure, error) {
	cfg.defaults()
	const days = 30
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

	weather, err := solar.DefaultWeatherModel().Sequence(
		solar.WeatherSunny, days, stats.NewRNG(cfg.Seed+1))
	if err != nil {
		return nil, err
	}

	// (a) closed loop with per-day re-planning.
	loop, err := controller.Run(controller.Config{
		NumSensors: cfg.Sensors,
		Factory:    factory,
		Targets:    cfg.Targets,
		Weather:    weather,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	// (b) static sunny plan executed through the same weather: each
	// day's true period drives the batteries while the stale schedule
	// drives activations.
	sunny, err := energy.PeriodFromRho(3)
	if err != nil {
		return nil, err
	}
	static, err := core.Greedy(core.Instance{
		N: cfg.Sensors, Period: sunny, Factory: factory,
	})
	if err != nil {
		return nil, err
	}
	staticSeries := Series{Label: "static-sunny-plan"}
	loopSeries := Series{Label: "closed-loop"}
	var staticTotal float64
	for d, w := range weather {
		tr, td, err := solar.PatternFor(w, 1)
		if err != nil {
			return nil, err
		}
		pattern := energy.Pattern{Recharge: tr, Discharge: td}
		truePeriod, err := pattern.Period()
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(sim.Config{
			NumSensors: cfg.Sensors,
			Slots:      48,
			Policy:     sim.SchedulePolicy{Schedule: static},
			Charging:   sim.DeterministicCharging{Period: truePeriod},
			Factory:    factory,
			Targets:    cfg.Targets,
			Seed:       cfg.Seed + uint64(d),
		})
		if err != nil {
			return nil, err
		}
		staticSeries.X = append(staticSeries.X, float64(d))
		staticSeries.Y = append(staticSeries.Y, res.AverageUtility)
		staticTotal += res.AverageUtility
		loopSeries.X = append(loopSeries.X, float64(d))
		loopSeries.Y = append(loopSeries.Y, loop.Windows[d].AverageUtility)
	}

	return &Figure{
		ID:     "closed-loop",
		Title:  fmt.Sprintf("Per-day re-planning vs static plan over %d Markov days (n=%d m=%d)", days, cfg.Sensors, cfg.Targets),
		XLabel: "day",
		YLabel: "avg-utility",
		Series: []Series{loopSeries, staticSeries},
		Notes: []string{
			fmt.Sprintf("closed-loop mean %.4f (%d replans) vs static mean %.4f",
				loop.AverageUtility, loop.Replans, staticTotal/float64(days)),
			"the gap appears exactly on non-sunny days, where the static plan mis-times activations",
		},
	}, nil
}
