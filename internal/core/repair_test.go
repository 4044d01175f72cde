package core

import (
	"math"
	"testing"

	"cool/internal/stats"
	"cool/internal/submodular"
)

// coverageInstance builds a random coverage-utility instance (the
// second utility model) for cross-model repair tests.
func coverageInstance(t *testing.T, rng *stats.RNG, n, m int, rho float64) Instance {
	t.Helper()
	items := make([]submodular.CoverageItem, m)
	for i := range items {
		var covered []int
		for v := 0; v < n; v++ {
			if rng.Bernoulli(0.6) {
				covered = append(covered, v)
			}
		}
		if len(covered) == 0 {
			covered = []int{rng.Intn(n)}
		}
		items[i] = submodular.CoverageItem{Value: rng.UniformRange(0.1, 2), CoveredBy: covered}
	}
	u, err := submodular.NewCoverageUtility(n, items)
	if err != nil {
		t.Fatal(err)
	}
	return Instance{N: n, Period: period(t, rho), Factory: func() submodular.RemovalOracle { return u.Oracle() }}
}

// allPresent returns a full-fleet mask.
func allPresent(n int) []bool {
	p := make([]bool, n)
	for i := range p {
		p[i] = true
	}
	return p
}

// convergeRepairer drives RepairAll to a local-search fixed point and
// reports whether one was reached within the attempt budget.
func convergeRepairer(r *Repairer) bool {
	for i := 0; i < 32; i++ {
		st := r.RepairAll()
		if st.Moves == 0 {
			return true
		}
	}
	return false
}

// checkRepairerConsistency asserts the invariants every operation must
// preserve: feasible schedule, assignment/present agreement, and the
// live oracles' incremental utility matching a fresh evaluation of the
// committed schedule.
func checkRepairerConsistency(t *testing.T, r *Repairer, in Instance) *Schedule {
	t.Helper()
	s, err := r.Schedule()
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := s.CheckFeasible(r.Period()); err != nil {
		t.Fatalf("infeasible committed schedule: %v", err)
	}
	assign := s.Assignment()
	nPresent := 0
	for v, slot := range assign {
		if slot == Absent {
			if r.Present(v) {
				t.Fatalf("sensor %d absent in assignment but present", v)
			}
			continue
		}
		nPresent++
		if !r.Present(v) {
			t.Fatalf("sensor %d assigned (%d) but not present", v, slot)
		}
	}
	if nPresent != r.NumPresent() {
		t.Fatalf("NumPresent = %d, assignment has %d", r.NumPresent(), nPresent)
	}
	fresh := s.PeriodUtility(in.Factory)
	live := r.Utility()
	if math.Abs(live-fresh) > 1e-6*(1+math.Abs(fresh)) {
		t.Fatalf("live utility %v drifted from fresh evaluation %v", live, fresh)
	}
	return s
}

// TestGreedySubsetMatchesReference pins the subset planner against the
// eager reference implementation on random present masks, both regimes.
func TestGreedySubsetMatchesReference(t *testing.T) {
	rng := stats.NewRNG(301)
	for _, rho := range []float64{3, 0.25} {
		for trial := 0; trial < 8; trial++ {
			n := 6 + rng.Intn(14)
			in, _ := detectionInstance(t, rng, n, 1+rng.Intn(4), rho)
			present := make([]bool, n)
			for v := range present {
				present[v] = rng.Bernoulli(0.7)
			}
			got, err := GreedySubset(in, present)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ReferenceGreedySubset(in, present)
			if err != nil {
				t.Fatal(err)
			}
			if !assignmentsEqual(got.Assignment(), want.Assignment()) {
				t.Fatalf("rho=%v: GreedySubset diverged from reference\n got %v\nwant %v (present %v)",
					rho, got.Assignment(), want.Assignment(), present)
			}
			for v, slot := range got.Assignment() {
				if present[v] && slot == Absent {
					t.Fatalf("present sensor %d marked Absent", v)
				}
				if !present[v] && slot != Absent {
					t.Fatalf("absent sensor %d assigned slot %d", v, slot)
				}
			}
			if err := got.CheckFeasible(in.Period); err != nil {
				t.Fatalf("infeasible subset schedule: %v", err)
			}
		}
	}
}

// TestGreedySubsetFullMaskMatchesGreedy: the full mask must reproduce
// the unconstrained planner bit-identically (nil mask as well).
func TestGreedySubsetFullMaskMatchesGreedy(t *testing.T) {
	rng := stats.NewRNG(302)
	for _, rho := range []float64{5, 0.5} {
		in, _ := detectionInstance(t, rng, 15, 3, rho)
		want, err := Greedy(in)
		if err != nil {
			t.Fatal(err)
		}
		full, err := GreedySubset(in, allPresent(in.N))
		if err != nil {
			t.Fatal(err)
		}
		if !assignmentsEqual(full.Assignment(), want.Assignment()) {
			t.Fatalf("rho=%v: full-mask subset diverged from Greedy", rho)
		}
		nilMask, err := GreedySubset(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !assignmentsEqual(nilMask.Assignment(), want.Assignment()) {
			t.Fatalf("rho=%v: nil-mask subset diverged from Greedy", rho)
		}
	}
}

// TestNewRepairerMatchesGreedy: the initial committed schedule must be
// bit-identical to the one-shot greedy, in both regimes and both
// utility models.
func TestNewRepairerMatchesGreedy(t *testing.T) {
	rng := stats.NewRNG(303)
	for _, rho := range []float64{3, 1, 0.25} {
		for _, model := range []string{"detection", "coverage"} {
			var in Instance
			if model == "detection" {
				in, _ = detectionInstance(t, rng, 18, 4, rho)
			} else {
				in = coverageInstance(t, rng, 18, 4, rho)
			}
			want, err := Greedy(in)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRepairer(in)
			if err != nil {
				t.Fatal(err)
			}
			s := checkRepairerConsistency(t, r, in)
			if !assignmentsEqual(s.Assignment(), want.Assignment()) {
				t.Fatalf("rho=%v %s: NewRepairer diverged from Greedy\n got %v\nwant %v",
					rho, model, s.Assignment(), want.Assignment())
			}
			if gap, err := r.GapVsFullReplan(); err != nil {
				t.Fatal(err)
			} else if math.Abs(gap) > 1e-9 {
				t.Fatalf("rho=%v %s: initial gap %v != 0", rho, model, gap)
			}
		}
	}
}

// TestRepairerPerturbationDifferential runs random add/remove batches
// and checks, after every operation: consistency invariants, stats
// sanity, and — after converging to a local-search fixed point — the
// ½-approximation gap versus the from-scratch replan.
func TestRepairerPerturbationDifferential(t *testing.T) {
	rng := stats.NewRNG(304)
	for _, rho := range []float64{3, 0.5} {
		n := 24
		in, _ := detectionInstance(t, rng, n, 5, rho)
		r, err := NewRepairer(in)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 12; op++ {
			var live, dead []int
			for v := 0; v < n; v++ {
				if r.Present(v) {
					live = append(live, v)
				} else {
					dead = append(dead, v)
				}
			}
			var stats RepairStats
			if (rng.Bernoulli(0.5) && len(live) > 2) || len(dead) == 0 {
				k := 1 + rng.Intn(min(3, len(live)-1))
				batch := pickRandom(rng, live, k)
				stats, err = r.RemoveSensors(batch)
				if err != nil {
					t.Fatalf("RemoveSensors(%v): %v", batch, err)
				}
				if stats.Changed != len(batch) {
					t.Fatalf("Changed = %d, want %d", stats.Changed, len(batch))
				}
			} else {
				k := 1 + rng.Intn(min(3, len(dead)))
				batch := pickRandom(rng, dead, k)
				stats, err = r.AddSensors(batch)
				if err != nil {
					t.Fatalf("AddSensors(%v): %v", batch, err)
				}
				if stats.Changed != len(batch) {
					t.Fatalf("Changed = %d, want %d", stats.Changed, len(batch))
				}
				// Adding sensors can never hurt a monotone utility, and
				// the added sensors are live so the front includes them.
				if stats.Utility < stats.UtilityBefore-1e-9 {
					t.Fatalf("AddSensors decreased utility %v -> %v", stats.UtilityBefore, stats.Utility)
				}
				if stats.Dirty < stats.Changed {
					t.Fatalf("damage front %d smaller than add batch %d", stats.Dirty, stats.Changed)
				}
			}
			checkRepairerConsistency(t, r, in)
			if converged := convergeRepairer(r); converged {
				gap, err := r.GapVsFullReplan()
				if err != nil {
					t.Fatal(err)
				}
				// A local-search fixed point is a ½-approximation, and so
				// is the greedy yardstick: the gap cannot exceed 50%.
				if gap > 50+1e-9 {
					t.Fatalf("rho=%v op=%d: converged gap %v%% exceeds 50%%", rho, op, gap)
				}
			}
			checkRepairerConsistency(t, r, in)
		}
	}
}

// TestRepairAllMonotone: the polish sweep never decreases utility.
func TestRepairAllMonotone(t *testing.T) {
	rng := stats.NewRNG(305)
	in, _ := detectionInstance(t, rng, 20, 4, 3)
	r, err := NewRepairer(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RemoveSensors([]int{1, 7, 13}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		st := r.RepairAll()
		if st.Utility < st.UtilityBefore-1e-9 {
			t.Fatalf("RepairAll decreased utility %v -> %v", st.UtilityBefore, st.Utility)
		}
		if st.Changed != 0 {
			t.Fatalf("RepairAll reported Changed = %d", st.Changed)
		}
	}
}

// TestRepairerValidation exercises the perturbation batch validation.
func TestRepairerValidation(t *testing.T) {
	rng := stats.NewRNG(306)
	in, _ := detectionInstance(t, rng, 10, 3, 3)
	r, err := NewRepairer(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RemoveSensors([]int{-1}); err == nil {
		t.Error("negative id accepted")
	}
	if _, err := r.RemoveSensors([]int{10}); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := r.RemoveSensors([]int{3, 3}); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, err := r.AddSensors([]int{4}); err == nil {
		t.Error("adding a live sensor accepted")
	}
	if _, err := r.RemoveSensors([]int{4}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RemoveSensors([]int{4}); err == nil {
		t.Error("double removal accepted")
	}
	if _, err := r.UpdateRho(1.7); err == nil {
		t.Error("non-normalizable rho accepted")
	}
	// Empty batches are no-ops.
	st, err := r.RemoveSensors(nil)
	if err != nil || st.Changed != 0 || st.Moves != 0 {
		t.Errorf("empty removal: %+v, %v", st, err)
	}
	st, err = r.AddSensors(nil)
	if err != nil || st.Changed != 0 {
		t.Errorf("empty add: %+v, %v", st, err)
	}
}

// TestRepairKillWholeSlot is the satellite edge case: removing every
// sensor assigned to one active slot must leave a feasible schedule
// whose survivors close the hole, cross-checked against the
// from-scratch reference planner.
func TestRepairKillWholeSlot(t *testing.T) {
	rng := stats.NewRNG(307)
	in, _ := detectionInstance(t, rng, 21, 4, 3)
	r, err := NewRepairer(in)
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	// Find the fullest slot and kill its entire active set.
	slot, size := 0, -1
	for tt, sz := range s.SlotSizes() {
		if sz > size {
			slot, size = tt, sz
		}
	}
	if size <= 0 {
		t.Fatal("no populated slot to kill")
	}
	victims := append([]int(nil), s.ActiveAt(slot)...)
	stats, err := r.RemoveSensors(victims)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Changed != len(victims) {
		t.Fatalf("Changed = %d, want %d", stats.Changed, len(victims))
	}
	checkRepairerConsistency(t, r, in)
	convergeRepairer(r)
	got := checkRepairerConsistency(t, r, in)
	present := make([]bool, in.N)
	for v := 0; v < in.N; v++ {
		present[v] = r.Present(v)
	}
	want, err := ReferenceGreedySubset(in, present)
	if err != nil {
		t.Fatal(err)
	}
	uw := want.PeriodUtility(in.Factory)
	ug := got.PeriodUtility(in.Factory)
	if uw > 0 && (uw-ug)/uw > 0.5+1e-9 {
		t.Fatalf("repaired utility %v below half of reference %v", ug, uw)
	}
}

// TestRepairReAddRemoved is the satellite edge case: a previously
// removed sensor id comes back and must be re-integrated (and the
// utility recovers to within the gap bound of the full replan).
func TestRepairReAddRemoved(t *testing.T) {
	rng := stats.NewRNG(308)
	for _, rho := range []float64{3, 0.5} {
		in, _ := detectionInstance(t, rng, 16, 4, rho)
		r, err := NewRepairer(in)
		if err != nil {
			t.Fatal(err)
		}
		victims := []int{2, 9, 11}
		if _, err := r.RemoveSensors(victims); err != nil {
			t.Fatal(err)
		}
		checkRepairerConsistency(t, r, in)
		stats, err := r.AddSensors(victims)
		if err != nil {
			t.Fatalf("re-adding removed ids: %v", err)
		}
		if stats.Changed != len(victims) {
			t.Fatalf("Changed = %d, want %d", stats.Changed, len(victims))
		}
		for _, v := range victims {
			if !r.Present(v) {
				t.Fatalf("sensor %d still absent after re-add", v)
			}
		}
		if r.NumPresent() != in.N {
			t.Fatalf("NumPresent = %d, want %d", r.NumPresent(), in.N)
		}
		checkRepairerConsistency(t, r, in)
		if convergeRepairer(r) {
			gap, err := r.GapVsFullReplan()
			if err != nil {
				t.Fatal(err)
			}
			if gap > 50+1e-9 {
				t.Fatalf("rho=%v: post re-add gap %v%% exceeds 50%%", rho, gap)
			}
		}
	}
}

// TestRepairRhoDriftCrossesOne is the satellite edge case: a ρ′ drift
// crossing ρ = 1 flips the regime; the rebuilt plan must equal the
// from-scratch subset planners exactly, in both directions.
func TestRepairRhoDriftCrossesOne(t *testing.T) {
	rng := stats.NewRNG(309)
	in, _ := detectionInstance(t, rng, 18, 4, 3)
	r, err := NewRepairer(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RemoveSensors([]int{0, 5, 12}); err != nil {
		t.Fatal(err)
	}
	present := make([]bool, in.N)
	for v := 0; v < in.N; v++ {
		present[v] = r.Present(v)
	}

	// Same-shape update is a no-op.
	st, err := r.UpdateRho(3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Full || st.Changed != 0 {
		t.Fatalf("same-rho update not a no-op: %+v", st)
	}

	// Cross down into the removal regime.
	st, err = r.UpdateRho(1.0 / 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full || st.Changed != r.NumPresent() {
		t.Fatalf("crossing update stats wrong: %+v", st)
	}
	if r.Mode() != ModeRemoval {
		t.Fatalf("mode = %v after rho=1/3", r.Mode())
	}
	got := checkRepairerConsistency(t, r, Instance{N: in.N, Period: r.Period(), Factory: in.Factory})
	inDown := Instance{N: in.N, Period: period(t, 1.0/3.0), Factory: in.Factory}
	want, err := GreedySubset(inDown, present)
	if err != nil {
		t.Fatal(err)
	}
	if !assignmentsEqual(got.Assignment(), want.Assignment()) {
		t.Fatalf("post-crossing plan diverged from GreedySubset\n got %v\nwant %v",
			got.Assignment(), want.Assignment())
	}
	ref, err := ReferenceGreedySubset(inDown, present)
	if err != nil {
		t.Fatal(err)
	}
	if !assignmentsEqual(got.Assignment(), ref.Assignment()) {
		t.Fatal("post-crossing plan diverged from ReferenceGreedySubset")
	}

	// And back up across the boundary.
	if _, err := r.UpdateRho(5); err != nil {
		t.Fatal(err)
	}
	if r.Mode() != ModePlacement {
		t.Fatalf("mode = %v after rho=5", r.Mode())
	}
	got = checkRepairerConsistency(t, r, Instance{N: in.N, Period: r.Period(), Factory: in.Factory})
	inUp := Instance{N: in.N, Period: period(t, 5), Factory: in.Factory}
	want, err = GreedySubset(inUp, present)
	if err != nil {
		t.Fatal(err)
	}
	if !assignmentsEqual(got.Assignment(), want.Assignment()) {
		t.Fatal("post-recrossing plan diverged from GreedySubset")
	}
}

// TestRepairHeteroInstance ties the heterogeneous planner to the
// perturbation machinery: on an equal-period hetero instance the
// hetero plan matches the uniform plan (the hetero_test idiom), and a
// Repairer over the uniform instance absorbs a kill batch with its
// repaired utility within the ½ bound of the from-scratch reference.
func TestRepairHeteroInstance(t *testing.T) {
	rng := stats.NewRNG(310)
	rhos := make([]float64, 15)
	for i := range rhos {
		rhos[i] = 3
	}
	hin, u := heteroInstance(t, rng, rhos, 4)
	hs, err := GreedyHetero(hin)
	if err != nil {
		t.Fatal(err)
	}
	in := Instance{N: len(rhos), Period: period(t, 3), Factory: hin.Factory}
	r, err := NewRepairer(in)
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	// Equal periods: the hetero planner and the repairer's uniform plan
	// agree on average utility (assignments may differ by slot rotation).
	hv := hs.AverageUtility(hin.Factory, 1)
	sv := s.AverageUtility(in.Factory, 1)
	if math.Abs(hv-sv) > 1e-9 {
		t.Fatalf("hetero %v != repairer uniform %v on equal periods", hv, sv)
	}
	_ = u

	victims := []int{1, 4, 8, 13}
	if _, err := r.RemoveSensors(victims); err != nil {
		t.Fatal(err)
	}
	checkRepairerConsistency(t, r, in)
	convergeRepairer(r)
	got := checkRepairerConsistency(t, r, in)
	present := make([]bool, in.N)
	for v := 0; v < in.N; v++ {
		present[v] = r.Present(v)
	}
	want, err := ReferenceGreedySubset(in, present)
	if err != nil {
		t.Fatal(err)
	}
	uw := want.PeriodUtility(in.Factory)
	ug := got.PeriodUtility(in.Factory)
	if uw > 0 && (uw-ug)/uw > 0.5+1e-9 {
		t.Fatalf("hetero-kill repaired utility %v below half of reference %v", ug, uw)
	}
}

// nanGainOracle wraps an oracle so that Gain returns NaN: no placement
// candidate beats the climb's floor, so every ρ ≥ 1 plan fails, while
// the removal regime, which only asks Loss, still plans. Embedding the
// interface hides the bulk and sparse contracts of the wrapped oracle.
type nanGainOracle struct {
	submodular.RemovalOracle
}

func (nanGainOracle) Gain(int) float64 { return math.NaN() }

// TestUpdateRhoFailureKeepsRepairer: a ρ update whose rebuild fails
// returns the error and leaves the Repairer as it was — period, mode,
// committed schedule and live utility — and still usable.
func TestUpdateRhoFailureKeepsRepairer(t *testing.T) {
	rng := stats.NewRNG(311)
	base := coverageInstance(t, rng, 6, 4, 1.0/3)
	in := Instance{N: base.N, Period: base.Period, Factory: func() submodular.RemovalOracle {
		return nanGainOracle{base.Factory()}
	}}
	r, err := NewRepairer(in)
	if err != nil {
		t.Fatal(err)
	}
	before := checkRepairerConsistency(t, r, in)
	period, mode, util := r.Period(), r.Mode(), r.Utility()
	if _, err := r.UpdateRho(3); err == nil {
		t.Fatal("UpdateRho(3) succeeded although every gain is NaN")
	}
	if r.Period() != period || r.Mode() != mode {
		t.Fatalf("failed UpdateRho left period %+v mode %v, want %+v %v", r.Period(), r.Mode(), period, mode)
	}
	after := checkRepairerConsistency(t, r, in)
	if !assignmentsEqual(after.Assignment(), before.Assignment()) {
		t.Fatalf("failed UpdateRho changed the schedule\n got %v\nwant %v", after.Assignment(), before.Assignment())
	}
	if r.Utility() != util {
		t.Fatalf("failed UpdateRho moved the utility %v -> %v", util, r.Utility())
	}
	if _, err := r.RemoveSensors([]int{0}); err != nil {
		t.Fatalf("RemoveSensors after failed UpdateRho: %v", err)
	}
	checkRepairerConsistency(t, r, in)
}

// TestRepairSweepTiesKeepIncumbent pins the sweep's strict comparison
// in both regimes: a move must strictly improve, so a sensor whose
// marginal ties across slots (sensor 3 covers nothing, so its marginal
// is 0 everywhere) keeps its slot and RepairAll reaches a fixed point.
// A non-strict comparison would shuttle it between tied slots forever.
func TestRepairSweepTiesKeepIncumbent(t *testing.T) {
	u, err := submodular.NewCoverageUtility(4, []submodular.CoverageItem{
		{Value: 1, CoveredBy: []int{0, 1}},
		{Value: 2, CoveredBy: []int{1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rho := range []float64{3, 1.0 / 3} {
		in := Instance{N: 4, Period: period(t, rho), Factory: func() submodular.RemovalOracle { return u.Oracle() }}
		r, err := NewRepairer(in)
		if err != nil {
			t.Fatal(err)
		}
		before := checkRepairerConsistency(t, r, in)
		if !convergeRepairer(r) {
			t.Fatalf("ρ=%v: RepairAll reached no fixed point", rho)
		}
		after := checkRepairerConsistency(t, r, in)
		if got, want := after.Assignment()[3], before.Assignment()[3]; got != want {
			t.Fatalf("ρ=%v: tied sensor moved from slot %d to %d", rho, want, got)
		}
	}
}

// pickRandom draws k distinct elements from pool without replacement.
func pickRandom(rng *stats.RNG, pool []int, k int) []int {
	idx := append([]int(nil), pool...)
	for i := len(idx) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
