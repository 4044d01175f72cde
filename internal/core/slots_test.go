package core

import (
	"math"
	"testing"

	"cool/internal/submodular"
)

// TestSlotOraclesMatchesSchedule cross-checks SlotOracles against the
// Schedule semantics on the golden corpus: every oracle's membership
// must match IsActiveAt slot for slot, and the summed values must equal
// PeriodUtility (bit-exact in placement mode, where both fold the same
// ascending Add order; within float tolerance in removal mode, where
// SlotOracles reaches the set through add-all-then-remove).
func TestSlotOraclesMatchesSchedule(t *testing.T) {
	for _, scn := range goldenScenarios() {
		scn := scn
		t.Run(scn.Name, func(t *testing.T) {
			in := buildGoldenInstance(t, scn)
			sched, err := Greedy(in)
			if err != nil {
				t.Fatal(err)
			}
			mode := sched.Mode()
			assign := sched.Assignment()
			oracles, err := SlotOracles(in, mode, assign)
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for slot, o := range oracles {
				for v := 0; v < in.N; v++ {
					if o.Contains(v) != sched.IsActiveAt(v, slot) {
						t.Fatalf("slot %d sensor %d: oracle membership %v, schedule %v",
							slot, v, o.Contains(v), sched.IsActiveAt(v, slot))
					}
				}
				sum += o.Value()
			}
			want := sched.PeriodUtility(in.Factory)
			if mode == ModePlacement {
				if sum != want {
					t.Fatalf("placement value sum %v != PeriodUtility %v", sum, want)
				}
			} else if math.Abs(sum-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("removal value sum %v differs from PeriodUtility %v", sum, want)
			}
		})
	}
}

// TestSlotOraclesValidation covers the error paths.
func TestSlotOraclesValidation(t *testing.T) {
	in := buildGoldenInstance(t, goldenScenarios()[0])
	T := in.Period.Slots()
	if _, err := SlotOracles(in, ModePlacement, make([]int, in.N-1)); err == nil {
		t.Fatal("short assignment accepted")
	}
	bad := make([]int, in.N)
	bad[0] = T
	if _, err := SlotOracles(in, ModePlacement, bad); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	if _, err := SlotOracles(in, Mode(0), make([]int, in.N)); err == nil {
		t.Fatal("invalid mode accepted")
	}
	// SlotOracles is where every engine builds its oracles, so a factory
	// returning nil surfaces as an error from each of them.
	nilFactory := Instance{N: in.N, Period: in.Period, Factory: func() submodular.RemovalOracle { return nil }}
	if _, err := SlotOracles(nilFactory, ModePlacement, newAssignment(in.N)); err == nil {
		t.Fatal("nil oracle accepted")
	}
	for name, plan := range map[string]func(Instance) (*Schedule, error){
		"Greedy":     Greedy,
		"LazyGreedy": LazyGreedy,
		"ParallelLazyGreedy": func(in Instance) (*Schedule, error) {
			return ParallelLazyGreedy(in, 2)
		},
	} {
		if _, err := plan(nilFactory); err == nil {
			t.Errorf("%s accepted a nil oracle", name)
		}
	}
	if _, err := NewRepairer(nilFactory); err == nil {
		t.Error("NewRepairer accepted a nil oracle")
	}
	if _, err := GreedySubset(in, make([]bool, in.N+1)); err == nil {
		t.Error("GreedySubset accepted a mask of the wrong length")
	}
}
