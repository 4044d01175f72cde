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
