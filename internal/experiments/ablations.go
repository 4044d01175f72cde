package experiments

import (
	"fmt"

	"cool/internal/baselines"
	"cool/internal/core"
	"cool/internal/energy"
	"cool/internal/geometry"
	"cool/internal/sim"
	"cool/internal/stats"
	"cool/internal/submodular"
	"cool/internal/wsn"
)

// AblationConfig parameterizes the ablation experiments.
type AblationConfig struct {
	// Sensors and Targets size the workload (defaults 200 and 20).
	Sensors, Targets int
	// FieldSide, Range, DetectP, Seed mirror Fig9Config (defaults 500,
	// 100, 0.4, 0).
	FieldSide, Range, DetectP float64
	Seed                      uint64
	// Workers bounds the worker pool of the sweeps that parallelize
	// (0 or negative selects runtime.NumCPU).
	Workers int
}

func (c *AblationConfig) defaults() {
	if c.Sensors == 0 {
		c.Sensors = 200
	}
	if c.Targets == 0 {
		c.Targets = 20
	}
	if c.FieldSide == 0 {
		c.FieldSide = 500
	}
	if c.Range == 0 {
		c.Range = 100
	}
	if c.DetectP == 0 {
		c.DetectP = 0.4
	}
}

func (c AblationConfig) instance(rho float64) (core.Instance, error) {
	period, err := energy.PeriodFromRho(rho)
	if err != nil {
		return core.Instance{}, err
	}
	net, err := wsn.Deploy(wsn.DeployConfig{
		Field:   geometry.NewRect(geometry.Point{}, geometry.Point{X: c.FieldSide, Y: c.FieldSide}),
		Sensors: c.Sensors,
		Targets: c.Targets,
		Range:   c.Range,
	}, stats.NewRNG(c.Seed))
	if err != nil {
		return core.Instance{}, err
	}
	u, err := wsn.BuildDetectionUtility(net, wsn.FixedProb(c.DetectP))
	if err != nil {
		return core.Instance{}, err
	}
	return core.Instance{
		N:       c.Sensors,
		Period:  period,
		Factory: func() submodular.RemovalOracle { return u.Oracle() },
	}, nil
}

// AblationPolicies compares the greedy schedule against every baseline
// on the Figure-9 workload (A2 in DESIGN.md). X encodes the policy
// index; labels carry the names.
func AblationPolicies(cfg AblationConfig) (*Figure, error) {
	cfg.defaults()
	in, err := cfg.instance(3)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed + 1)
	fig := &Figure{
		ID:     "ablation-policies",
		Title:  fmt.Sprintf("Scheduling policies on n=%d m=%d", cfg.Sensors, cfg.Targets),
		XLabel: "policy-index",
		YLabel: "avg-utility",
	}
	for i, name := range baselines.All() {
		sched, err := baselines.Build(name, in, rng)
		if err != nil {
			return nil, fmt.Errorf("experiments: policy %s: %w", name, err)
		}
		avg := sched.AverageUtility(in.Factory, cfg.Targets)
		fig.Series = append(fig.Series, Series{
			Label: string(name),
			X:     []float64{float64(i)},
			Y:     []float64{avg},
		})
	}
	return fig, nil
}

// AblationRho sweeps the charging ratio across both regimes (A3):
// ρ ∈ {1/3, 1/2, 1, 2, 3, 5}, reporting the greedy average utility.
// Higher ρ (slower recharge) means fewer sensors active per slot and
// lower utility — the quantitative cost of bad weather.
func AblationRho(cfg AblationConfig) (*Figure, error) {
	cfg.defaults()
	rhos := []float64{1.0 / 3, 0.5, 1, 2, 3, 5}
	s := Series{Label: "greedy-avg-utility"}
	for _, rho := range rhos {
		in, err := cfg.instance(rho)
		if err != nil {
			return nil, err
		}
		sched, err := core.Greedy(in)
		if err != nil {
			return nil, err
		}
		s.X = append(s.X, rho)
		s.Y = append(s.Y, sched.AverageUtility(in.Factory, cfg.Targets))
	}
	return &Figure{
		ID:     "ablation-rho",
		Title:  fmt.Sprintf("Charging ratio sweep on n=%d m=%d", cfg.Sensors, cfg.Targets),
		XLabel: "rho",
		YLabel: "avg-utility",
		Series: []Series{s},
		Notes: []string{
			"rho<=1 uses the passive-slot removal greedy; rho>1 the placement greedy",
		},
	}, nil
}

// RandomChargingExperiment runs the Section-V stochastic charging model
// under the greedy schedule across event-load levels, reporting the
// simulated average utility (normalized per target).
func RandomChargingExperiment(cfg AblationConfig) (*Figure, error) {
	cfg.defaults()
	in, err := cfg.instance(3)
	if err != nil {
		return nil, err
	}
	sched, err := core.Greedy(in)
	if err != nil {
		return nil, err
	}
	loads := []float64{0.25, 0.5, 1, 2, 4}
	s := Series{Label: "simulated-avg-utility"}
	det := Series{Label: "deterministic-avg-utility"}
	detAvg := sched.AverageUtility(in.Factory, cfg.Targets)
	for _, load := range loads {
		res, err := sim.Run(sim.Config{
			NumSensors: in.N,
			Slots:      30 * in.Period.Slots(),
			Policy:     sim.SchedulePolicy{Schedule: sched},
			Charging: sim.RandomCharging{
				Period:        in.Period,
				EventRate:     load,
				EventDuration: 1,
			},
			Factory: in.Factory,
			Targets: cfg.Targets,
			Seed:    cfg.Seed + 7,
		})
		if err != nil {
			return nil, err
		}
		s.X = append(s.X, load)
		s.Y = append(s.Y, res.AverageUtility)
		det.X = append(det.X, load)
		det.Y = append(det.Y, detAvg)
	}
	return &Figure{
		ID:     "random-charging",
		Title:  "Section-V random charging: utility vs event load",
		XLabel: "event-load",
		YLabel: "avg-utility",
		Series: []Series{s, det},
		Notes: []string{
			"light event loads drain sensors slower than the deterministic model assumes, so availability (and utility) can exceed the deterministic schedule value",
		},
	}, nil
}
