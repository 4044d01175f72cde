package core

import (
	"math"
	"testing"
)

// TestGreedyTraceDiminishingReturns: the symmetric single-target
// instance exhibits a non-increasing gain sequence along the climb's
// steps (the quantity the submodular machinery exploits), and the
// gains sum to the plan's utility. Random instances can interleave slot
// choices, so the clean monotone statement is checked on the symmetric
// workload.
func TestGreedyTraceDiminishingReturns(t *testing.T) {
	in, _ := symmetricInstance(t, 12, 1, 0.4, 3)
	c, err := newClimb(in, ModePlacement, newAssignment(in.N))
	if err != nil {
		t.Fatal(err)
	}
	pending := make([]int, in.N)
	for v := range pending {
		pending[v] = v
	}
	c.begin(pending)
	var prev, sum float64
	for step := 0; step < in.N; step++ {
		st, err := c.step()
		if err != nil {
			t.Fatal(err)
		}
		if step > 0 && st.value > prev+1e-9 {
			t.Errorf("gain increased at step %d: %v -> %v", step, prev, st.value)
		}
		prev = st.value
		sum += st.value
	}
	s, err := c.schedule()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.PeriodUtility(in.Factory); math.Abs(got-sum) > 1e-9 {
		t.Errorf("final utility %v != summed step gains %v", got, sum)
	}
}

func TestScheduleStats(t *testing.T) {
	in, _ := symmetricInstance(t, 8, 1, 0.4, 3)
	s, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats(in.Factory)
	if len(st.SlotUtilities) != 4 {
		t.Fatalf("slot utilities = %d", len(st.SlotUtilities))
	}
	if math.Abs(st.Total-s.PeriodUtility(in.Factory)) > 1e-9 {
		t.Errorf("total %v != period utility", st.Total)
	}
	// Even spread on the symmetric instance: perfect fairness.
	if math.Abs(st.Fairness-1) > 1e-9 {
		t.Errorf("fairness = %v, want 1 on the symmetric instance", st.Fairness)
	}
	if math.Abs(st.MinSlot-st.MaxSlot) > 1e-9 {
		t.Errorf("min %v != max %v on even spread", st.MinSlot, st.MaxSlot)
	}

	// A concentrated schedule has fairness 1/T.
	concentrated, err := NewSchedule(ModePlacement, 4, []int{0, 0, 0, 0, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	cs := concentrated.Stats(in.Factory)
	if math.Abs(cs.Fairness-0.25) > 1e-9 {
		t.Errorf("concentrated fairness = %v, want 0.25", cs.Fairness)
	}
	if cs.MinSlot != 0 {
		t.Errorf("concentrated min slot = %v", cs.MinSlot)
	}
}
