package cool

import (
	"math"
	"testing"
)

// TestIncrementalMatchesGreedy pins the facade contract: the handle's
// initial committed schedule is bit-identical to Plan with
// AlgorithmGreedy, in both regimes.
func TestIncrementalMatchesGreedy(t *testing.T) {
	net, err := AllCoverNetwork(20, 6)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewDetectionUtility(net, FixedProb(0.35))
	if err != nil {
		t.Fatal(err)
	}
	for _, period := range []Period{{ActiveSlots: 1, PassiveSlots: 3}, {ActiveSlots: 3, PassiveSlots: 1}} {
		pl, err := NewPlanner(u, period)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := pl.Incremental()
		if err != nil {
			t.Fatal(err)
		}
		want := mustPlan(t, pl, PlanRequest{Algorithm: AlgorithmGreedy}).Schedule
		got, err := inc.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		ga, wa := got.Assignment(), want.Assignment()
		for v := range wa {
			if ga[v] != wa[v] {
				t.Fatalf("period %+v: sensor %d incremental slot %d != greedy %d", period, v, ga[v], wa[v])
			}
		}
		if gap, err := inc.Gap(); err != nil || math.Abs(gap) > 1e-9 {
			t.Fatalf("period %+v: initial gap %v (%v)", period, gap, err)
		}
		if inc.NumPresent() != net.NumSensors() || inc.Mode() != got.Mode() {
			t.Fatalf("period %+v: accessors wrong", period)
		}
	}
}

// TestIncrementalPerturbationCycle drives the three perturbation ops
// through the facade and checks feasibility and the gap bound at the
// converged fixed point.
func TestIncrementalPerturbationCycle(t *testing.T) {
	net, err := AllCoverNetwork(24, 8)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewDetectionUtility(net, FixedProb(0.3))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlanner(u, Period{ActiveSlots: 1, PassiveSlots: 3})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := pl.Incremental()
	if err != nil {
		t.Fatal(err)
	}

	victims := []int{2, 7, 11, 19}
	st, err := inc.KillSensors(victims)
	if err != nil {
		t.Fatal(err)
	}
	if st.Changed != len(victims) || inc.NumPresent() != net.NumSensors()-len(victims) {
		t.Fatalf("kill accounting wrong: %+v, present %d", st, inc.NumPresent())
	}
	for _, v := range victims {
		if inc.Present(v) {
			t.Fatalf("sensor %d still present after kill", v)
		}
	}

	st, err = inc.DeploySensors([]int{7, 19})
	if err != nil {
		t.Fatal(err)
	}
	if st.Utility < st.UtilityBefore-1e-9 {
		t.Fatalf("deploy decreased utility %v -> %v", st.UtilityBefore, st.Utility)
	}

	// Weather drift crossing rho = 1 flips the regime and rebuilds.
	st, err = inc.UpdateRho(1.0 / 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full || inc.Mode() != ModeRemoval {
		t.Fatalf("crossing drift: %+v, mode %v", st, inc.Mode())
	}
	s, err := inc.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckFeasible(inc.Period()); err != nil {
		t.Fatalf("infeasible after drift: %v", err)
	}

	for i := 0; i < 16; i++ {
		if inc.RepairAll().Moves == 0 {
			gap, err := inc.Gap()
			if err != nil {
				t.Fatal(err)
			}
			if gap > 50+1e-9 {
				t.Fatalf("converged gap %v%% exceeds 50%%", gap)
			}
			return
		}
	}
}

// TestShardedRepairComposition pins the ShardedResult doc note: a
// sharded initial plan and the incremental Repairer run the same sweep,
// so a perturbation hitting halo sensors of a sharded deployment can be
// absorbed by the global incremental handle with the same quality
// accounting the border sweep uses — the repaired schedule stays
// feasible and within the ½ bound of a fresh replan.
func TestShardedRepairComposition(t *testing.T) {
	net := shardedTestNetwork(t, 160, 80)
	period := Period{ActiveSlots: 1, PassiveSlots: 3}
	res, err := ShardedDetectionPlan(net, FixedProb(0.4), period, ShardedOptions{Shards: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveShards < 2 || res.Halo == 0 {
		t.Skip("deployment produced no real cuts; nothing to compose")
	}

	u, err := NewDetectionUtility(net, FixedProb(0.4))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlanner(u, period)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := pl.Incremental()
	if err != nil {
		t.Fatal(err)
	}

	// Kill a batch straddling the first cut — exactly the sensors the
	// border-correction sweep owned.
	cut := res.Cuts[0]
	var victims []int
	for i := 0; i < net.NumSensors() && len(victims) < 6; i++ {
		s := net.Sensor(i)
		if math.Abs(s.Pos.X-cut) <= s.Reach() {
			victims = append(victims, i)
		}
	}
	if len(victims) == 0 {
		t.Skip("no sensors straddle the first cut")
	}
	before := inc.Utility()
	present := inc.NumPresent()
	if _, err := inc.KillSensors(victims); err != nil {
		t.Fatal(err)
	}
	for _, v := range victims {
		if inc.Present(v) {
			t.Fatalf("sensor %d still present after kill", v)
		}
	}
	for i := 0; i < 16; i++ {
		if inc.RepairAll().Moves == 0 {
			break
		}
	}
	s, err := inc.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckFeasible(period); err != nil {
		t.Fatalf("infeasible composed schedule: %v", err)
	}
	gap, err := inc.Gap()
	if err != nil {
		t.Fatal(err)
	}
	if gap > 50+1e-9 {
		t.Fatalf("halo-kill repaired gap %v%% exceeds 50%%", gap)
	}
	// Both the sharded plan and the repaired schedule account utility on
	// the same global yardstick.
	if inc.Utility() <= 0 || res.Utility <= 0 {
		t.Fatalf("degenerate utilities: repaired %v sharded %v", inc.Utility(), res.Utility)
	}

	// The ½ bound measured directly, not only through Gap's percentage:
	// a fresh full replan over the surviving sensors (the same
	// greedy-subset yardstick Gap uses) must itself be feasible, and the
	// repaired schedule must retain at least half its utility.
	full, err := inc.FullReplan()
	if err != nil {
		t.Fatal(err)
	}
	if err := full.CheckFeasible(period); err != nil {
		t.Fatalf("infeasible fresh replan: %v", err)
	}
	fullU := pl.PeriodUtility(full)
	if fullU <= 0 {
		t.Fatalf("degenerate fresh-replan utility %v", fullU)
	}
	if repaired := inc.Utility(); repaired < fullU/2-1e-9 {
		t.Fatalf("repaired utility %v below ½ of fresh replan %v", repaired, fullU)
	}

	// Deploy-back phase: the halo sensors return, the repairer absorbs
	// the reverse perturbation, and the composed schedule recovers — at
	// least the degraded utility, still feasible, still within the ½
	// bound of a fresh replan over the restored deployment.
	if _, err := inc.DeploySensors(victims); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if inc.RepairAll().Moves == 0 {
			break
		}
	}
	if inc.NumPresent() != present {
		t.Fatalf("deploy-back restored %d sensors, want %d", inc.NumPresent(), present)
	}
	s2, err := inc.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.CheckFeasible(period); err != nil {
		t.Fatalf("infeasible schedule after deploy-back: %v", err)
	}
	gap2, err := inc.Gap()
	if err != nil {
		t.Fatal(err)
	}
	if gap2 > 50+1e-9 {
		t.Fatalf("deploy-back repaired gap %v%% exceeds 50%%", gap2)
	}
	if rec := inc.Utility(); rec+1e-9 < before/2 {
		t.Fatalf("recovered utility %v collapsed below half the pre-kill utility %v", rec, before)
	}
}
