package experiments

import (
	"strings"
	"testing"
)

// TestFalseVerdictIsError pins the benches' own gate: a result with any
// published verdict false is an error naming the verdict and the case,
// and the same result with every verdict true is not.
func TestFalseVerdictIsError(t *testing.T) {
	shard := func() *ShardResult {
		return &ShardResult{
			PlanGroups: []ShardPlanGroup{{Sensors: 1200, Engine: "eager", K1Identical: true,
				Cases: []ShardPlanCase{{K: 1, GapWithinBound: true}, {K: 4, GapWithinBound: true}}}},
			NetNodes: 2000,
			NetCases: []ShardNetCase{{K: 1, TraceIdentical: true}, {K: 4, TraceIdentical: true}},
		}
	}
	replan := func() *ReplanResult {
		return &ReplanResult{Groups: []ReplanGroup{{Sensors: 1000, InitIdentical: true,
			Cases: []ReplanCase{{Killed: 10, SchedulesFeasible: true, GapWithinBound: true}}}}}
	}
	lifetime := func() *LifetimeResult {
		return &LifetimeResult{Groups: []LifetimeGroup{
			{Name: "k1", ExactRan: true, SchedulesFeasible: true, ExactIsMax: true, PlannersBeatUtility: true},
			{Name: "scaled", SchedulesFeasible: true, ExactIsMax: true, PlannersBeatUtility: true},
		}}
	}
	for _, good := range []interface{ verdictErr() error }{shard(), replan(), lifetime()} {
		if err := good.verdictErr(); err != nil {
			t.Errorf("%T with every verdict true: %v", good, err)
		}
	}

	for _, tc := range []struct {
		verdict, where string
		bad            interface{ verdictErr() error }
	}{
		{"k1_identical", "plan n=1200 engine=eager", func() *ShardResult {
			r := shard()
			r.PlanGroups[0].K1Identical = false
			return r
		}()},
		{"gap_within_bound", "plan n=1200 engine=eager k=4", func() *ShardResult {
			r := shard()
			r.PlanGroups[0].Cases[1].GapWithinBound = false
			return r
		}()},
		{"trace_identical", "net n=2000 k=4", func() *ShardResult {
			r := shard()
			r.NetCases[1].TraceIdentical = false
			return r
		}()},
		{"init_identical", "n=1000", func() *ReplanResult {
			r := replan()
			r.Groups[0].InitIdentical = false
			return r
		}()},
		{"schedules_feasible", "n=1000 killed=10", func() *ReplanResult {
			r := replan()
			r.Groups[0].Cases[0].SchedulesFeasible = false
			return r
		}()},
		{"gap_within_bound", "n=1000 killed=10", func() *ReplanResult {
			r := replan()
			r.Groups[0].Cases[0].GapWithinBound = false
			return r
		}()},
		{"schedules_feasible", "scaled", func() *LifetimeResult {
			r := lifetime()
			r.Groups[1].SchedulesFeasible = false
			return r
		}()},
		{"exact_is_max", "k1", func() *LifetimeResult {
			r := lifetime()
			r.Groups[0].ExactIsMax = false
			return r
		}()},
		{"planners_beat_utility", "scaled", func() *LifetimeResult {
			r := lifetime()
			r.Groups[1].PlannersBeatUtility = false
			return r
		}()},
		{"exact_ran", "every scenario", func() *LifetimeResult {
			r := lifetime()
			r.Groups[0].ExactRan = false
			return r
		}()},
	} {
		err := tc.bad.verdictErr()
		if err == nil {
			t.Errorf("%T with %s false: no error", tc.bad, tc.verdict)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, tc.verdict+" is false for "+tc.where) {
			t.Errorf("%T with %s false: error %q does not name the verdict and %q", tc.bad, tc.verdict, msg, tc.where)
		}
	}
}
