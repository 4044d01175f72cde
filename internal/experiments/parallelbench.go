package experiments

import (
	"fmt"
	"time"

	"cool/internal/core"
	"cool/internal/energy"
	"cool/internal/geometry"
	"cool/internal/parallel"
	"cool/internal/sim"
	"cool/internal/stats"
	"cool/internal/submodular"
	"cool/internal/wsn"
)

// ParallelBenchConfig parameterizes the parallel-engine benchmark: one
// Figure-9-style workload scheduled by the seed's reference greedy, the
// cached sequential greedy, and the sharded parallel greedy, plus a
// Monte-Carlo batch run sequentially and in parallel.
type ParallelBenchConfig struct {
	// Sensors and Targets size the workload (defaults 240 and 24).
	Sensors, Targets int
	// FieldSide, Range, DetectP mirror Fig9Config (defaults 500, 100,
	// 0.4).
	FieldSide, Range, DetectP float64
	// Rho is the charging ratio (default 7, i.e. T = 8 slots, the
	// regime where slot sharding has work to shard).
	Rho float64
	// Workers bounds the parallel engines (0 or negative selects
	// runtime.NumCPU).
	Workers int
	// Iters is the number of timing repetitions per engine; the best
	// (minimum) time is reported (default 3).
	Iters int
	// SimSlots and SimReps size the Monte-Carlo batch (defaults 240
	// slots × 32 replications).
	SimSlots, SimReps int
	// Seed drives deployment and simulation randomness.
	Seed uint64
}

func (c *ParallelBenchConfig) defaults() error {
	if c.Sensors == 0 {
		c.Sensors = 240
	}
	if c.Targets == 0 {
		c.Targets = 24
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
		c.Rho = 7
	}
	if c.Iters == 0 {
		c.Iters = 3
	}
	if c.SimSlots == 0 {
		c.SimSlots = 240
	}
	if c.SimReps == 0 {
		c.SimReps = 32
	}
	if c.Sensors <= 0 || c.Targets <= 0 || c.Iters < 1 ||
		c.SimSlots < 1 || c.SimReps < 1 ||
		c.DetectP < 0 || c.DetectP > 1 {
		return fmt.Errorf("experiments: invalid parallel bench config %+v", *c)
	}
	return nil
}

// ParallelBenchResult is the machine-readable summary coolbench writes
// to BENCH_parallel.json.
type ParallelBenchResult struct {
	// Workers is the resolved worker count the parallel engines ran
	// with.
	Workers int `json:"workers"`
	// Sensors, Targets and Slots describe the workload.
	Sensors int `json:"sensors"`
	Targets int `json:"targets"`
	Slots   int `json:"slots"`
	// GreedyReferenceNsOp is the seed's eager O(n²·T) greedy.
	GreedyReferenceNsOp int64 `json:"greedy_reference_ns_op"`
	// GreedySequentialNsOp is the dirty-slot-cached sequential greedy.
	GreedySequentialNsOp int64 `json:"greedy_sequential_ns_op"`
	// GreedyParallelNsOp is the sharded parallel greedy.
	GreedyParallelNsOp int64 `json:"greedy_parallel_ns_op"`
	// Speedups are reference time divided by the respective engine's
	// time (higher is better).
	GreedySequentialSpeedup float64 `json:"greedy_sequential_speedup_vs_reference"`
	GreedyParallelSpeedup   float64 `json:"greedy_parallel_speedup_vs_reference"`
	// Sim timings cover one Monte-Carlo batch of sim_reps replications.
	SimReps            int     `json:"sim_reps"`
	SimSequentialNsOp  int64   `json:"sim_sequential_ns_op"`
	SimParallelNsOp    int64   `json:"sim_parallel_ns_op"`
	SimParallelSpeedup float64 `json:"sim_parallel_speedup"`
	// SchedulesIdentical records the determinism check: all three
	// greedy engines returned the same assignment, and the parallel
	// Monte-Carlo result matched the sequential one.
	SchedulesIdentical bool `json:"schedules_identical"`
}

// verdictErr names the bench's false verdict, if any.
func (r *ParallelBenchResult) verdictErr() error {
	if !r.SchedulesIdentical {
		return falseVerdict("parallel", "schedules_identical", fmt.Sprintf("n=%d workers=%d", r.Sensors, r.Workers))
	}
	return nil
}

// ParallelBench times the three greedy engines and the two Monte-Carlo
// drivers on the same workload, verifies their outputs are identical,
// and reports best-of-Iters wall times. It returns both a renderable
// Figure and the raw machine-readable result.
func ParallelBench(cfg ParallelBenchConfig) (*Figure, *ParallelBenchResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, nil, err
	}
	period, err := energy.PeriodFromRho(cfg.Rho)
	if err != nil {
		return nil, nil, err
	}
	net, err := wsn.Deploy(wsn.DeployConfig{
		Field:   geometry.NewRect(geometry.Point{}, geometry.Point{X: cfg.FieldSide, Y: cfg.FieldSide}),
		Sensors: cfg.Sensors,
		Targets: cfg.Targets,
		Range:   cfg.Range,
	}, stats.NewRNG(cfg.Seed))
	if err != nil {
		return nil, nil, err
	}
	u, err := wsn.BuildDetectionUtility(net, wsn.FixedProb(cfg.DetectP))
	if err != nil {
		return nil, nil, err
	}
	in := core.Instance{
		N:       cfg.Sensors,
		Period:  period,
		Factory: func() submodular.RemovalOracle { return u.Oracle() },
	}
	workers := parallel.Workers(cfg.Workers)

	timeIt := func(run func() error) (int64, error) {
		best := int64(-1)
		for i := 0; i < cfg.Iters; i++ {
			t0 := time.Now()
			if err := run(); err != nil {
				return 0, err
			}
			if ns := time.Since(t0).Nanoseconds(); best < 0 || ns < best {
				best = ns
			}
		}
		return best, nil
	}

	var refSched, seqSched, parSched *core.Schedule
	refNs, err := timeIt(func() error {
		refSched, err = core.ReferenceGreedy(in)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	seqNs, err := timeIt(func() error {
		seqSched, err = core.Greedy(in)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	parNs, err := timeIt(func() error {
		parSched, err = core.ParallelGreedy(in, workers)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	identical := assignEqual(refSched.Assignment(), seqSched.Assignment()) &&
		assignEqual(refSched.Assignment(), parSched.Assignment())

	simCfg := sim.Config{
		NumSensors: in.N,
		Slots:      cfg.SimSlots,
		Policy:     sim.SchedulePolicy{Schedule: seqSched},
		Charging: sim.RandomCharging{
			Period:        period,
			EventRate:     1,
			EventDuration: 1,
		},
		Factory: in.Factory,
		Targets: cfg.Targets,
		Seed:    cfg.Seed + 1,
	}
	var seqMC, parMC *sim.MonteCarloResult
	simSeqNs, err := timeIt(func() error {
		seqMC, err = sim.RunParallel(simCfg, cfg.SimReps, 1)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	simParNs, err := timeIt(func() error {
		parMC, err = sim.RunParallel(simCfg, cfg.SimReps, workers)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	identical = identical && monteCarloEqual(seqMC, parMC)

	res := &ParallelBenchResult{
		Workers:                 workers,
		Sensors:                 cfg.Sensors,
		Targets:                 cfg.Targets,
		Slots:                   period.Slots(),
		GreedyReferenceNsOp:     refNs,
		GreedySequentialNsOp:    seqNs,
		GreedyParallelNsOp:      parNs,
		GreedySequentialSpeedup: float64(refNs) / float64(seqNs),
		GreedyParallelSpeedup:   float64(refNs) / float64(parNs),
		SimReps:                 cfg.SimReps,
		SimSequentialNsOp:       simSeqNs,
		SimParallelNsOp:         simParNs,
		SimParallelSpeedup:      float64(simSeqNs) / float64(simParNs),
		SchedulesIdentical:      identical,
	}

	fig := &Figure{
		ID:     "parallel-bench",
		Title:  fmt.Sprintf("Parallel engine benchmark (n=%d m=%d T=%d, workers=%d)", cfg.Sensors, cfg.Targets, period.Slots(), workers),
		XLabel: "engine-index",
		YLabel: "milliseconds",
		Series: []Series{
			{Label: "greedy-reference", X: []float64{0}, Y: []float64{float64(refNs) / 1e6}},
			{Label: "greedy-cached", X: []float64{1}, Y: []float64{float64(seqNs) / 1e6}},
			{Label: "greedy-parallel", X: []float64{2}, Y: []float64{float64(parNs) / 1e6}},
			{Label: "sim-sequential", X: []float64{3}, Y: []float64{float64(simSeqNs) / 1e6}},
			{Label: "sim-parallel", X: []float64{4}, Y: []float64{float64(simParNs) / 1e6}},
		},
		Notes: []string{
			fmt.Sprintf("greedy speedups vs reference: cached %.2fx, parallel %.2fx (workers=%d)",
				res.GreedySequentialSpeedup, res.GreedyParallelSpeedup, workers),
			fmt.Sprintf("monte-carlo speedup: %.2fx over %d replications", res.SimParallelSpeedup, cfg.SimReps),
			fmt.Sprintf("outputs identical across engines and worker counts: %v", identical),
		},
	}
	if err := res.verdictErr(); err != nil {
		return nil, nil, err
	}
	return fig, res, nil
}

func assignEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// monteCarloEqual reports whether two Monte-Carlo results are
// bit-identical in their per-replication summaries.
func monteCarloEqual(a, b *sim.MonteCarloResult) bool {
	if len(a.Replications) != len(b.Replications) {
		return false
	}
	for i := range a.Replications {
		if a.Replications[i] != b.Replications[i] {
			return false
		}
	}
	return a.ActivationsDenied == b.ActivationsDenied
}
