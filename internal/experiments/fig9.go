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

// Fig9Config parameterizes the large trace-driven simulation.
type Fig9Config struct {
	// SensorCounts is the family of curves (paper: 100..500 step 100).
	SensorCounts []int
	// TargetCounts is the X axis (paper: 10..50 step 10).
	TargetCounts []int
	// FieldSide is the square deployment field side (default 500).
	FieldSide float64
	// Range is the sensing radius (default 100).
	Range float64
	// DetectP is the detection probability of a covering sensor
	// (paper: 0.4).
	DetectP float64
	// Rho is the charging ratio (default 3).
	Rho float64
	// Repeats averages over this many random deployments (default 3).
	Repeats int
	// Seed drives deployment randomness.
	Seed uint64
	// Workers bounds the worker pool for the sweep (0 or negative
	// selects runtime.NumCPU).
	Workers int
}

func (c *Fig9Config) defaults() error {
	if len(c.SensorCounts) == 0 {
		c.SensorCounts = []int{100, 200, 300, 400, 500}
	}
	if len(c.TargetCounts) == 0 {
		c.TargetCounts = []int{10, 20, 30, 40, 50}
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
	if c.Rho == 0 {
		c.Rho = 3
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	if c.FieldSide <= 0 || c.Range <= 0 || c.Repeats < 1 ||
		c.DetectP < 0 || c.DetectP > 1 {
		return fmt.Errorf("experiments: invalid fig9 config %+v", *c)
	}
	return nil
}

// Fig9 reproduces Figure 9: average utility per target per slot as the
// number of targets varies, one curve per deployment size. Sensors and
// targets are scattered uniformly over a square field; each covering
// sensor detects with probability p.
//
// Shape to reproduce: larger deployments dominate smaller ones
// everywhere; utilities sit around 0.69+ for 100–200 sensors and 0.78+
// for 300–500, always comfortably above the 1/2-approximation floor.
func Fig9(cfg Fig9Config) (*Figure, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	period, err := energy.PeriodFromRho(cfg.Rho)
	if err != nil {
		return nil, err
	}
	field := geometry.NewRect(geometry.Point{}, geometry.Point{X: cfg.FieldSide, Y: cfg.FieldSide})
	rng := stats.NewRNG(cfg.Seed)

	fig := &Figure{
		ID:     "fig9",
		Title:  "Average utility vs number of targets, per deployment size",
		XLabel: "targets",
		YLabel: "avg-utility",
	}

	// The sweep's points are independent; run them on the shared bounded
	// worker pool. Determinism is preserved by splitting one RNG per
	// point in a fixed order before any worker starts and by writing
	// each point's result into an index-addressed slot, so the final
	// accumulation adds floats in the same order for every worker count.
	type job struct {
		si, mi, rep int
		n, m        int
		rng         *stats.RNG
	}
	var jobs []job
	for si, n := range cfg.SensorCounts {
		for mi, m := range cfg.TargetCounts {
			for rep := 0; rep < cfg.Repeats; rep++ {
				jobs = append(jobs, job{si: si, mi: mi, rep: rep, n: n, m: m, rng: rng.Split()})
			}
		}
	}
	partial := make([]float64, len(jobs))
	if err := parallel.For(cfg.Workers, len(jobs), func(i int) error {
		j := jobs[i]
		avg, err := fig9Point(j.n, j.m, cfg, period, field, j.rng)
		if err != nil {
			return err
		}
		partial[i] = avg
		return nil
	}); err != nil {
		return nil, err
	}
	sums := make([][]float64, len(cfg.SensorCounts))
	for i := range sums {
		sums[i] = make([]float64, len(cfg.TargetCounts))
	}
	for i, j := range jobs {
		sums[j.si][j.mi] += partial[i]
	}

	for si, n := range cfg.SensorCounts {
		s := Series{Label: fmt.Sprintf("n=%d", n)}
		for mi, m := range cfg.TargetCounts {
			s.X = append(s.X, float64(m))
			s.Y = append(s.Y, sums[si][mi]/float64(cfg.Repeats))
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes,
		"paper: >=0.69 average utility at 100-200 sensors, >=0.78 at 300-500; always >=0.5 (approximation bound)")
	return fig, nil
}

func fig9Point(
	n, m int, cfg Fig9Config, period energy.Period,
	field geometry.Rect, rng *stats.RNG,
) (float64, error) {
	net, err := wsn.Deploy(wsn.DeployConfig{
		Field:   field,
		Sensors: n,
		Targets: m,
		Range:   cfg.Range,
	}, rng)
	if err != nil {
		return 0, err
	}
	u, err := wsn.BuildDetectionUtility(net, wsn.FixedProb(cfg.DetectP))
	if err != nil {
		return 0, err
	}
	in := core.Instance{
		N:       n,
		Period:  period,
		Factory: func() submodular.RemovalOracle { return u.Oracle() },
	}
	sched, err := core.Greedy(in)
	if err != nil {
		return 0, err
	}
	return sched.AverageUtility(in.Factory, m), nil
}
