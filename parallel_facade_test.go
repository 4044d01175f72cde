package cool

import (
	"reflect"
	"testing"
)

// TestPlannerParallelGreedyMatchesGreedy checks the public facade: the
// parallel algorithm is bit-identical to the lazy and the eager greedy
// for every worker count.
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
	wantLazy := mustPlan(t, planner, PlanRequest{Algorithm: AlgorithmLazyGreedy}).Schedule
	if !reflect.DeepEqual(want.Assignment(), wantLazy.Assignment()) {
		t.Fatal("LazyGreedy differs from Greedy")
	}
	for _, w := range []int{1, 2, 8, 0} {
		got := mustPlan(t, planner, PlanRequest{Algorithm: AlgorithmParallelLazyGreedy, Workers: w}).Schedule
		if !reflect.DeepEqual(want.Assignment(), got.Assignment()) {
			t.Errorf("workers=%d: ParallelLazyGreedy differs from Greedy", w)
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
