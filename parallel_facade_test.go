package cool

import (
	"reflect"
	"testing"

	"cool/internal/core"
	"cool/internal/stats"
	"cool/internal/submodular"
)

// TestPlannerParallelGreedyMatchesGreedy checks the public facade: the
// lazy-greedy and parallel-lazy-greedy names plan through the greedy
// engine and return its schedule.
func TestPlannerParallelGreedyMatchesGreedy(t *testing.T) {
	net := deployTestNetwork(t, 24, 5)
	u, err := NewDetectionUtility(net, FixedProb(0.4))
	if err != nil {
		t.Fatal(err)
	}
	planner, err := NewPlanner(u, sunnyPeriod(t))
	if err != nil {
		t.Fatal(err)
	}
	want := mustPlan(t, planner, PlanRequest{Algorithm: AlgorithmGreedy}).Schedule
	for _, alg := range []Algorithm{AlgorithmLazyGreedy, AlgorithmParallelLazyGreedy} {
		got := mustPlan(t, planner, PlanRequest{Algorithm: alg}).Schedule
		if !reflect.DeepEqual(want.Assignment(), got.Assignment()) {
			t.Errorf("%s differs from %s", alg, AlgorithmGreedy)
		}
	}
}

// TestRunMonteCarloFacade checks the public Monte-Carlo entry point:
// worker-count invariance and the documented per-replication seeds.
func TestRunMonteCarloFacade(t *testing.T) {
	net := deployTestNetwork(t, 16, 3)
	u, err := NewDetectionUtility(net, FixedProb(0.4))
	if err != nil {
		t.Fatal(err)
	}
	period := sunnyPeriod(t)
	planner, err := NewPlanner(u, period)
	if err != nil {
		t.Fatal(err)
	}
	sched := mustPlan(t, planner, PlanRequest{Algorithm: AlgorithmGreedy}).Schedule
	cfg := SimConfig{
		NumSensors: 16,
		Slots:      32,
		Policy:     SchedulePolicy{Schedule: sched},
		Charging: RandomCharging{
			Period:        period,
			EventRate:     1,
			EventDuration: 1,
		},
		Factory: NewInstanceOracleFactory(u),
		Targets: 3,
		Seed:    21,
	}
	want, err := RunMonteCarlo(cfg, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunMonteCarlo(cfg, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("RunMonteCarlo result depends on worker count")
	}
	for i, rep := range got.Replications {
		if rep.Seed != ReplicationSeed(cfg.Seed, i) {
			t.Errorf("replication %d ran with seed %d, want ReplicationSeed(%d,%d)",
				i, rep.Seed, cfg.Seed, i)
		}
	}
}

// TestWrapFunctionEngineNamesMatchReference plans a WrapFunction
// utility, which answers every marginal by re-evaluating the function,
// with every utility engine name and the lazy-greedy baseline, and
// holds each schedule to the reference scan's bit for bit, in both
// regimes.
func TestWrapFunctionEngineNamesMatchReference(t *testing.T) {
	const n, m = 200, 20
	rng := stats.NewRNG(7)
	targets := make([]submodular.DetectionTarget, m)
	for j := range targets {
		probs := make(map[int]float64)
		for v := 0; v < n; v++ {
			if rng.Bernoulli(0.3) {
				probs[v] = 0.4
			}
		}
		targets[j] = submodular.DetectionTarget{Weight: 1, Probs: probs}
	}
	fn, err := submodular.NewDetectionUtility(n, targets)
	if err != nil {
		t.Fatal(err)
	}
	u, err := WrapFunction(fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, rho := range []float64{3, 1.0 / 3} {
		period, err := PeriodFromRho(rho)
		if err != nil {
			t.Fatal(err)
		}
		planner, err := NewPlanner(u, period)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.ReferenceGreedy(core.Instance{N: n, Period: period, Factory: NewInstanceOracleFactory(u)})
		if err != nil {
			t.Fatal(err)
		}
		schedules := map[string]*Schedule{}
		for _, alg := range []Algorithm{AlgorithmGreedy, AlgorithmLazyGreedy, AlgorithmParallelLazyGreedy} {
			schedules[string(alg)] = mustPlan(t, planner, PlanRequest{Algorithm: alg}).Schedule
		}
		if schedules[`Baseline("lazy-greedy")`], err = planner.Baseline("lazy-greedy", 1); err != nil {
			t.Fatal(err)
		}
		for name, got := range schedules {
			if got.Mode() != ref.Mode() || !reflect.DeepEqual(got.Assignment(), ref.Assignment()) {
				t.Errorf("ρ=%v: %s schedule differs from ReferenceGreedy's", rho, name)
			}
		}
	}
}
