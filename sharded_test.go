package cool

import (
	"testing"
)

// shardedTestNetwork deploys a uniform field wide enough for real cuts.
func shardedTestNetwork(t *testing.T, n, m int) *Network {
	t.Helper()
	net, err := Deploy(DeployConfig{
		Sensors: n, Targets: m,
		Field:  NewField(400),
		Range:  18,
		Layout: LayoutUniform,
	}, 12345)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestShardedPlanK1Identity pins the facade's k = 1 contract against
// Plan's greedy for both utility families and both modes.
func TestShardedPlanK1Identity(t *testing.T) {
	net := shardedTestNetwork(t, 150, 75)
	for _, period := range []Period{{ActiveSlots: 1, PassiveSlots: 3}, {ActiveSlots: 3, PassiveSlots: 1}} {
		res, err := ShardedDetectionPlan(net, FixedProb(0.4), period, ShardedOptions{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		u, err := NewDetectionUtility(net, FixedProb(0.4))
		if err != nil {
			t.Fatal(err)
		}
		pl, err := NewPlanner(u, period)
		if err != nil {
			t.Fatal(err)
		}
		want := mustPlan(t, pl, PlanRequest{Algorithm: AlgorithmGreedy}).Schedule
		got, exp := res.Schedule.Assignment(), want.Assignment()
		for v := range exp {
			if got[v] != exp[v] {
				t.Fatalf("period %+v: sensor %d sharded slot %d != greedy %d", period, v, got[v], exp[v])
			}
		}
		if res.Utility != pl.PeriodUtility(want) {
			t.Fatalf("period %+v: k=1 utility %v != planner %v", period, res.Utility, pl.PeriodUtility(want))
		}

		cres, err := ShardedTargetCountPlan(net, period, ShardedOptions{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		cu, err := NewTargetCountUtility(net)
		if err != nil {
			t.Fatal(err)
		}
		cpl, err := NewPlanner(cu, period)
		if err != nil {
			t.Fatal(err)
		}
		cwant := mustPlan(t, cpl, PlanRequest{Algorithm: AlgorithmLazyGreedy}).Schedule
		cgot, cexp := cres.Schedule.Assignment(), cwant.Assignment()
		for v := range cexp {
			if cgot[v] != cexp[v] {
				t.Fatalf("period %+v: count sensor %d sharded slot %d != lazy-greedy %d", period, v, cgot[v], cexp[v])
			}
		}
	}
}

// TestShardedPlanDecomposition runs a real decomposition through the
// facade: feasibility, a small gap against the global greedy, and the
// decomposition accounting.
func TestShardedPlanDecomposition(t *testing.T) {
	net := shardedTestNetwork(t, 400, 200)
	period := Period{ActiveSlots: 1, PassiveSlots: 2}
	res, err := ShardedDetectionPlan(net, FixedProb(0.4), period, ShardedOptions{Shards: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveShards < 2 {
		t.Fatalf("decomposition collapsed to %d shards", res.EffectiveShards)
	}
	if err := res.Schedule.CheckFeasible(period); err != nil {
		t.Fatal(err)
	}
	if res.Interior+res.Halo != net.NumSensors() {
		t.Fatalf("interior %d + halo %d != n %d", res.Interior, res.Halo, net.NumSensors())
	}
	u, err := NewDetectionUtility(net, FixedProb(0.4))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlanner(u, period)
	if err != nil {
		t.Fatal(err)
	}
	global := mustPlan(t, pl, PlanRequest{Algorithm: AlgorithmGreedy}).Schedule
	gu := pl.PeriodUtility(global)
	if gap := (gu - res.Utility) / gu; gap > 0.05 {
		t.Fatalf("utility gap %.2f%% vs global greedy (%v vs %v)", 100*gap, res.Utility, gu)
	}
	if res.Utility < res.UtilityBefore-1e-9 {
		t.Fatalf("sweep lost utility: %v -> %v", res.UtilityBefore, res.Utility)
	}

	// Requested counts beyond the geometry degrade gracefully.
	big, err := ShardedTargetCountPlan(net, period, ShardedOptions{Shards: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if big.EffectiveShards > net.NumSensors() {
		t.Fatalf("effective shards %d beyond n", big.EffectiveShards)
	}
	if err := big.Schedule.CheckFeasible(period); err != nil {
		t.Fatal(err)
	}
}

// TestShardedPlanValidation covers the facade error paths.
func TestShardedPlanValidation(t *testing.T) {
	net := shardedTestNetwork(t, 30, 15)
	period := Period{ActiveSlots: 1, PassiveSlots: 2}
	if _, err := ShardedDetectionPlan(nil, FixedProb(0.4), period, ShardedOptions{}); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := ShardedDetectionPlan(net, nil, period, ShardedOptions{}); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := ShardedTargetCountPlan(net, Period{}, ShardedOptions{}); err == nil {
		t.Fatal("invalid period accepted")
	}
}
