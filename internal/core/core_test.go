package core

import (
	"math"
	"slices"
	"sync"
	"testing"

	"cool/internal/energy"
	"cool/internal/stats"
	"cool/internal/submodular"
)

// testUtility builds a random detection utility over n sensors and m
// targets, each target covered by a random subset.
func testUtility(t *testing.T, rng *stats.RNG, n, m int) *submodular.DetectionUtility {
	t.Helper()
	targets := make([]submodular.DetectionTarget, m)
	for i := range targets {
		probs := make(map[int]float64)
		for v := 0; v < n; v++ {
			if rng.Bernoulli(0.7) {
				probs[v] = rng.UniformRange(0.1, 0.9)
			}
		}
		if len(probs) == 0 {
			probs[rng.Intn(n)] = 0.5
		}
		targets[i] = submodular.DetectionTarget{Weight: 1, Probs: probs}
	}
	u, err := submodular.NewDetectionUtility(n, targets)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func detectionInstance(t *testing.T, rng *stats.RNG, n, m int, rho float64) (Instance, *submodular.DetectionUtility) {
	t.Helper()
	u := testUtility(t, rng, n, m)
	period, err := energy.PeriodFromRho(rho)
	if err != nil {
		t.Fatal(err)
	}
	return Instance{
		N:       n,
		Period:  period,
		Factory: func() submodular.RemovalOracle { return u.Oracle() },
	}, u
}

func period(t *testing.T, rho float64) energy.Period {
	t.Helper()
	p, err := energy.PeriodFromRho(rho)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestInstanceValidate(t *testing.T) {
	rng := stats.NewRNG(1)
	in, _ := detectionInstance(t, rng, 4, 2, 3)
	if err := in.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	bad := in
	bad.N = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero sensors accepted")
	}
	bad = in
	bad.Factory = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil factory accepted")
	}
	bad = in
	bad.Period = energy.Period{}
	if err := bad.Validate(); err == nil {
		t.Error("invalid period accepted")
	}
}

func TestModeFor(t *testing.T) {
	if ModeFor(period(t, 3)) != ModePlacement {
		t.Error("rho=3 should be placement")
	}
	if ModeFor(period(t, 1)) != ModePlacement {
		t.Error("rho=1 should be placement")
	}
	if ModeFor(period(t, 0.5)) != ModeRemoval {
		t.Error("rho=0.5 should be removal")
	}
	if ModePlacement.String() != "placement" || ModeRemoval.String() != "removal" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string wrong")
	}
}

func TestNewScheduleValidation(t *testing.T) {
	if _, err := NewSchedule(Mode(9), 4, nil); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := NewSchedule(ModePlacement, 0, nil); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewSchedule(ModePlacement, 4, []int{4}); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if _, err := NewSchedule(ModePlacement, 4, []int{Absent}); err != nil {
		t.Errorf("Absent marker rejected: %v", err)
	}
	if _, err := NewSchedule(ModePlacement, 4, []int{-3}); err == nil {
		t.Error("slot -3 accepted")
	}
}

// TestScheduleAbsentSemantics pins the Absent marker: an absent sensor
// is inactive in every slot in both modes, contributes nothing to the
// slot cache, and round-trips feasibility checks.
func TestScheduleAbsentSemantics(t *testing.T) {
	for _, mode := range []Mode{ModePlacement, ModeRemoval} {
		s, err := NewSchedule(mode, 3, []int{0, Absent, 1})
		if err != nil {
			t.Fatal(err)
		}
		for tt := 0; tt < 3; tt++ {
			if s.IsActiveAt(1, tt) {
				t.Errorf("%v: absent sensor active at slot %d", mode, tt)
			}
			for _, v := range s.ActiveAt(tt) {
				if v == 1 {
					t.Errorf("%v: absent sensor in ActiveAt(%d)", mode, tt)
				}
			}
		}
	}
}

func TestSchedulePlacementSemantics(t *testing.T) {
	s, err := NewSchedule(ModePlacement, 3, []int{0, 1, 1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ActiveAt(0); len(got) != 1 || got[0] != 0 {
		t.Errorf("ActiveAt(0) = %v", got)
	}
	if got := s.ActiveAt(1); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("ActiveAt(1) = %v", got)
	}
	if got := s.ActiveAt(2); len(got) != 0 {
		t.Errorf("ActiveAt(2) = %v", got)
	}
	// Tiling: slot 4 == slot 1; negative wraps.
	if got := s.ActiveAt(4); len(got) != 2 {
		t.Errorf("ActiveAt(4) = %v", got)
	}
	if got := s.ActiveAt(-2); len(got) != 2 {
		t.Errorf("ActiveAt(-2) = %v (should wrap to slot 1)", got)
	}
	if !s.IsActiveAt(1, 4) || s.IsActiveAt(1, 3) {
		t.Error("IsActiveAt wrong")
	}
	if s.IsActiveAt(3, 0) {
		t.Error("unassigned sensor reported active")
	}
	if s.IsActiveAt(99, 0) {
		t.Error("out-of-range sensor reported active")
	}
	if sz := s.SlotSizes(); sz[0] != 1 || sz[1] != 2 || sz[2] != 0 {
		t.Errorf("SlotSizes = %v", sz)
	}
	if s.NumSensors() != 4 || s.Period() != 3 || s.Mode() != ModePlacement {
		t.Error("accessors wrong")
	}
}

func TestScheduleRemovalSemantics(t *testing.T) {
	// 2 sensors, T=3 (rho=1/2: active 2, passive 1).
	s, err := NewSchedule(ModeRemoval, 3, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Sensor 0 passive at slot 0, sensor 1 passive at slot 2.
	if got := s.ActiveAt(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("ActiveAt(0) = %v", got)
	}
	if got := s.ActiveAt(1); len(got) != 2 {
		t.Errorf("ActiveAt(1) = %v", got)
	}
	if got := s.ActiveAt(2); len(got) != 1 || got[0] != 0 {
		t.Errorf("ActiveAt(2) = %v", got)
	}
	if s.IsActiveAt(0, 0) || !s.IsActiveAt(0, 1) {
		t.Error("IsActiveAt removal semantics wrong")
	}
}

func TestScheduleAssignmentCopies(t *testing.T) {
	s, err := NewSchedule(ModePlacement, 2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	a := s.Assignment()
	a[0] = 1
	if s.Assignment()[0] != 0 {
		t.Error("Assignment exposes internal state")
	}
}

// TestScheduleFirstUseConcurrent makes the first ActiveAt, SlotSizes
// and PeriodUtility calls on one fresh schedule from many goroutines at
// once, as the simulator's parallel workers do with a shared policy:
// the lists are built once, and every caller sees the same ones (run
// under -race).
func TestScheduleFirstUseConcurrent(t *testing.T) {
	const n, workers = 300, 12
	for _, rho := range []float64{3, 1.0 / 3} {
		rng := stats.NewRNG(7)
		in, _ := detectionInstance(t, rng, n, 40, rho)
		mode, slots := ModeFor(in.Period), in.Period.Slots()
		assign := make([]int, n)
		for v := range assign {
			assign[v] = rng.Intn(slots+2) - 2 // Absent, −1 or a slot
		}
		ref, err := NewSchedule(mode, slots, assign)
		if err != nil {
			t.Fatal(err)
		}
		eager, wantU := eagerSlots(ref), ref.PeriodUtility(in.Factory)
		s, err := NewSchedule(mode, slots, assign)
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				switch w % 3 {
				case 0:
					for tt := 0; tt < slots; tt++ {
						if got := s.ActiveAt(tt); !slices.Equal(got, eager[tt]) {
							t.Errorf("ρ=%v: ActiveAt(%d) = %v, want %v", rho, tt, got, eager[tt])
						}
					}
				case 1:
					for tt, size := range s.SlotSizes() {
						if size != len(eager[tt]) {
							t.Errorf("ρ=%v: SlotSizes()[%d] = %d, want %d", rho, tt, size, len(eager[tt]))
						}
					}
				case 2:
					if u := s.PeriodUtility(in.Factory); u != wantU {
						t.Errorf("ρ=%v: PeriodUtility = %v, want %v", rho, u, wantU)
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
	}
}

func TestCheckFeasible(t *testing.T) {
	p := period(t, 3) // T=4, 1 active slot
	s, err := NewSchedule(ModePlacement, 4, []int{0, 1, 2, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckFeasible(p); err != nil {
		t.Errorf("feasible schedule rejected: %v", err)
	}
	if err := s.CheckFeasible(period(t, 1)); err == nil {
		t.Error("period mismatch accepted")
	}
	// Removal schedule against rho<1 period: active T-1 = budget.
	p2 := period(t, 1.0/3) // active 3, passive 1, T=4
	s2, err := NewSchedule(ModeRemoval, 4, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.CheckFeasible(p2); err != nil {
		t.Errorf("removal schedule rejected: %v", err)
	}
	// A removal schedule against a placement-budget period must fail:
	// sensors are active 3 slots but budget is 1.
	p3 := period(t, 3)
	if err := s2.CheckFeasible(p3); err == nil {
		t.Error("over-budget schedule accepted")
	}
}

func TestPeriodAndTotalUtility(t *testing.T) {
	rng := stats.NewRNG(5)
	in, u := detectionInstance(t, rng, 6, 2, 3)
	s, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	// PeriodUtility must equal the sum of slot evaluations.
	var want float64
	for slot := 0; slot < s.Period(); slot++ {
		want += u.Eval(s.ActiveAt(slot))
	}
	got := s.PeriodUtility(in.Factory)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("PeriodUtility = %v, want %v", got, want)
	}
	total, err := s.TotalUtility(in.Factory, 3*s.Period())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-3*want) > 1e-9 {
		t.Errorf("TotalUtility = %v, want %v", total, 3*want)
	}
	if _, err := s.TotalUtility(in.Factory, s.Period()+1); err == nil {
		t.Error("non-multiple working time accepted")
	}
	if _, err := s.TotalUtility(in.Factory, 0); err == nil {
		t.Error("zero working time accepted")
	}
	avg := s.AverageUtility(in.Factory, 2)
	if math.Abs(avg-want/float64(s.Period())/2) > 1e-9 {
		t.Errorf("AverageUtility = %v", avg)
	}
	// targets <= 0 defaults to 1.
	if got := s.AverageUtility(in.Factory, 0); math.Abs(got-want/float64(s.Period())) > 1e-9 {
		t.Errorf("AverageUtility(0) = %v", got)
	}
}
