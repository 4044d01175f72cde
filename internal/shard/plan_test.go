package shard

import (
	"math"
	"runtime"
	"testing"

	"cool/internal/core"
	"cool/internal/energy"
)

// TestPlanK1BitIdentical pins the k = 1 contract: the sharded planner
// with one shard returns exactly the global engine's schedule, for both
// modes and both utility families.
func TestPlanK1BitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		period energy.Period
		detect bool
	}{
		{"placement-detect-eager", placementPeriod(), true},
		{"placement-count-eager", placementPeriod(), false},
		{"removal-detect-eager", removalPeriod(), true},
		{"removal-count-eager", removalPeriod(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := buildTestProblem(t, 42, 180, 90, 200, 200, 25, tc.period, tc.detect)
			res, err := Plan(d.p, Options{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Greedy(d.p.Global)
			if err != nil {
				t.Fatal(err)
			}
			got, exp := res.Schedule.Assignment(), want.Assignment()
			for v := range exp {
				if got[v] != exp[v] {
					t.Fatalf("sensor %d: sharded slot %d, global slot %d", v, got[v], exp[v])
				}
			}
			if res.EffectiveShards != 1 || res.Halo != 0 {
				t.Fatalf("k=1 result reports shards=%d halo=%d", res.EffectiveShards, res.Halo)
			}
			if res.Utility != want.PeriodUtility(d.p.Global.Factory) {
				t.Fatalf("k=1 utility %v != global %v", res.Utility, want.PeriodUtility(d.p.Global.Factory))
			}
		})
	}
}

// TestPlanShardedQuality runs real decompositions and checks the
// quality accounting: feasible schedules, the correction sweep never
// losing utility, and a small gap against the global greedy on a dense
// uniform field.
func TestPlanShardedQuality(t *testing.T) {
	for _, tc := range []struct {
		name   string
		period energy.Period
		detect bool
	}{
		{"placement-detect", placementPeriod(), true},
		{"removal-detect", removalPeriod(), true},
		{"placement-count", placementPeriod(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := buildTestProblem(t, 7, 500, 250, 600, 150, 15, tc.period, tc.detect)
			global, err := core.Greedy(d.p.Global)
			if err != nil {
				t.Fatal(err)
			}
			gu := global.PeriodUtility(d.p.Global.Factory)
			for _, k := range []int{2, 4} {
				res, err := Plan(d.p, Options{Shards: k, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if res.EffectiveShards < 2 {
					t.Fatalf("k=%d collapsed to %d shards", k, res.EffectiveShards)
				}
				if err := res.Schedule.CheckFeasible(tc.period); err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				if res.Utility < res.UtilityBefore-1e-9 {
					t.Fatalf("k=%d: correction sweep lost utility: %v -> %v", k, res.UtilityBefore, res.Utility)
				}
				gap := (gu - res.Utility) / gu
				if gap > 0.05 {
					t.Fatalf("k=%d: utility gap %.2f%% vs global greedy (%.4f vs %.4f)",
						k, 100*gap, res.Utility, gu)
				}
				if res.Interior+res.Halo != len(d.p.Sensors) {
					t.Fatalf("k=%d: interior %d + halo %d != n %d", k, res.Interior, res.Halo, len(d.p.Sensors))
				}
				if len(res.Cuts) != res.EffectiveShards-1 {
					t.Fatalf("k=%d: %d cuts for %d shards", k, len(res.Cuts), res.EffectiveShards)
				}
			}
		})
	}
}

// TestPlanClamping covers the graceful-degradation satellite: requested
// shard counts beyond the populated geometry clamp down, and Shards
// <= 0 selects NumCPU, mirroring parallel.Workers.
func TestPlanClamping(t *testing.T) {
	d := buildTestProblem(t, 3, 120, 60, 100, 100, 30, placementPeriod(), true)
	res, err := Plan(d.p, Options{Shards: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestedShards != 1<<20 {
		t.Fatalf("requested %d, want the raw request %d", res.RequestedShards, 1<<20)
	}
	if res.EffectiveShards > 120 || res.EffectiveShards < 1 {
		t.Fatalf("effective shards %d out of range", res.EffectiveShards)
	}
	if err := res.Schedule.CheckFeasible(placementPeriod()); err != nil {
		t.Fatal(err)
	}

	res, err = Plan(d.p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestedShards != runtime.NumCPU() && res.RequestedShards != 120 {
		t.Fatalf("Shards=0 requested %d, want NumCPU=%d (or the n clamp)", res.RequestedShards, runtime.NumCPU())
	}

	// A single-column deployment cannot be cut: even k=8 degrades to the
	// global engine bit-identically.
	narrow := buildTestProblem(t, 5, 60, 30, 1e-6, 300, 10, placementPeriod(), true)
	res, err = Plan(narrow.p, Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveShards != 1 {
		t.Fatalf("single-column field produced %d shards", res.EffectiveShards)
	}
	want, err := core.Greedy(narrow.p.Global)
	if err != nil {
		t.Fatal(err)
	}
	got, exp := res.Schedule.Assignment(), want.Assignment()
	for v := range exp {
		if got[v] != exp[v] {
			t.Fatalf("degraded plan differs from global at sensor %d", v)
		}
	}
}

// TestPlanMaxRounds pins the sweep's round bound: a plan with real
// cuts runs at least one and at most core.DefaultRepairRounds rounds,
// and the sweep never lowers the merged plans' utility.
func TestPlanMaxRounds(t *testing.T) {
	d := buildTestProblem(t, 9, 300, 150, 400, 120, 14, placementPeriod(), true)
	res, err := Plan(d.p, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Halo == 0 {
		t.Fatal("no halo sensors: the sweep has nothing to do")
	}
	if res.Rounds < 1 || res.Rounds > core.DefaultRepairRounds {
		t.Fatalf("sweep rounds %d outside [1, %d]", res.Rounds, core.DefaultRepairRounds)
	}
	if res.Utility+1e-12 < res.UtilityBefore {
		t.Fatalf("sweep made things worse: %v < %v", res.Utility, res.UtilityBefore)
	}
}

// TestPlanValidation covers the error paths.
func TestPlanValidation(t *testing.T) {
	if _, err := Plan(nil, Options{}); err == nil {
		t.Fatal("nil problem accepted")
	}
	d := buildTestProblem(t, 1, 50, 25, 100, 100, 10, placementPeriod(), true)

	short := *d.p
	short.Sensors = short.Sensors[:10]
	if _, err := Plan(&short, Options{Shards: 2}); err == nil {
		t.Fatal("mismatched sensor geometry accepted")
	}

	wrongPeriod := *d.p
	wrongPeriod.Period = removalPeriod()
	if _, err := Plan(&wrongPeriod, Options{Shards: 2}); err == nil {
		t.Fatal("period mismatch accepted")
	}

	noBuild := *d.p
	noBuild.BuildShard = nil
	if _, err := Plan(&noBuild, Options{Shards: 4}); err == nil {
		t.Fatal("nil BuildShard accepted for a real decomposition")
	}
	// ... but k=1 never needs it.
	if _, err := Plan(&noBuild, Options{Shards: 1}); err != nil {
		t.Fatalf("k=1 should not need BuildShard: %v", err)
	}
}

// TestCorrectionSweepConverges checks the fixed-point property
// directly: once a sweep reports zero moves, another round still
// reports zero (the state is a genuine local optimum over halo
// reassignments), and assignments remain feasible slots.
func TestCorrectionSweepConverges(t *testing.T) {
	d := buildTestProblem(t, 21, 400, 200, 500, 130, 16, removalPeriod(), true)
	pt := newPartition(d.p, 4)
	if pt.shards() < 2 {
		t.Skip("geometry degenerated")
	}
	res, err := Plan(d.p, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	assign := res.Schedule.Assignment()
	rounds, moves, err := core.Sweep(d.p.Global, assign, pt.haloList)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 1 || moves != 0 {
		t.Fatalf("post-Plan state not a fixed point: %d further moves in %d rounds", moves, rounds)
	}
	T := d.p.Period.Slots()
	for v, slot := range assign {
		if slot < -1 || slot >= T {
			t.Fatalf("sensor %d assigned out-of-range slot %d", v, slot)
		}
	}
	if math.IsNaN(res.Utility) {
		t.Fatal("NaN utility")
	}
}
