package core

import (
	"math"
	"testing"

	"cool/internal/energy"
	"cool/internal/stats"
	"cool/internal/submodular"
)

// bruteForceOptimum enumerates every per-sensor slot assignment and
// returns the best period utility. Placement mode: sensor active only
// in its chosen slot. Removal mode: active in every slot except it.
func bruteForceOptimum(u submodular.Function, n, T int, mode Mode) float64 {
	assign := make([]int, n)
	best := math.Inf(-1)
	var rec func(v int)
	rec = func(v int) {
		if v == n {
			var total float64
			for t := 0; t < T; t++ {
				var set []int
				for s := 0; s < n; s++ {
					if (mode == ModePlacement && assign[s] == t) ||
						(mode == ModeRemoval && assign[s] != t) {
						set = append(set, s)
					}
				}
				total += u.Eval(set)
			}
			if total > best {
				best = total
			}
			return
		}
		for t := 0; t < T; t++ {
			assign[v] = t
			rec(v + 1)
		}
	}
	rec(0)
	return best
}

func TestGreedyValidatesInstance(t *testing.T) {
	if _, err := Greedy(Instance{}); err == nil {
		t.Error("invalid instance accepted")
	}
	if _, err := LazyGreedy(Instance{}); err == nil {
		t.Error("invalid instance accepted by LazyGreedy")
	}
}

func TestGreedyPlacementFeasible(t *testing.T) {
	rng := stats.NewRNG(10)
	in, _ := detectionInstance(t, rng, 10, 3, 3)
	s, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mode() != ModePlacement {
		t.Errorf("mode = %v", s.Mode())
	}
	if err := s.CheckFeasible(in.Period); err != nil {
		t.Error(err)
	}
	// Every sensor scheduled exactly once.
	for v, slot := range s.Assignment() {
		if slot < 0 || slot >= s.Period() {
			t.Errorf("sensor %d unassigned (slot %d)", v, slot)
		}
	}
}

// TestGreedyApproximationPlacement verifies Lemma 4.1 empirically:
// greedy ≥ OPT/2 on random instances, across ρ ∈ {1, 2, 3}.
func TestGreedyApproximationPlacement(t *testing.T) {
	rng := stats.NewRNG(11)
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(4)            // 3..6 sensors
		m := 1 + rng.Intn(3)            // 1..3 targets
		rho := float64(1 + rng.Intn(3)) // 1..3
		in, u := detectionInstance(t, rng, n, m, rho)
		s, err := Greedy(in)
		if err != nil {
			t.Fatal(err)
		}
		greedyVal := s.PeriodUtility(in.Factory)
		opt := bruteForceOptimum(u, n, in.Period.Slots(), ModePlacement)
		if greedyVal < opt/2-1e-9 {
			t.Errorf("trial %d: greedy %v < OPT/2 = %v (n=%d m=%d rho=%v)",
				trial, greedyVal, opt/2, n, m, rho)
		}
		if greedyVal > opt+1e-9 {
			t.Errorf("trial %d: greedy %v exceeds OPT %v", trial, greedyVal, opt)
		}
	}
}

// TestGreedyApproximationRemoval verifies Theorem 4.4 empirically for
// ρ ≤ 1 instances.
func TestGreedyApproximationRemoval(t *testing.T) {
	rng := stats.NewRNG(12)
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(3)
		m := 1 + rng.Intn(3)
		inv := float64(2 + rng.Intn(2)) // 1/rho in {2,3}
		in, u := detectionInstance(t, rng, n, m, 1/inv)
		s, err := Greedy(in)
		if err != nil {
			t.Fatal(err)
		}
		if s.Mode() != ModeRemoval {
			t.Fatalf("mode = %v, want removal", s.Mode())
		}
		if err := s.CheckFeasible(in.Period); err != nil {
			t.Fatal(err)
		}
		greedyVal := s.PeriodUtility(in.Factory)
		opt := bruteForceOptimum(u, n, in.Period.Slots(), ModeRemoval)
		if greedyVal < opt/2-1e-9 {
			t.Errorf("trial %d: removal greedy %v < OPT/2 = %v", trial, greedyVal, opt/2)
		}
		if greedyVal > opt+1e-9 {
			t.Errorf("trial %d: removal greedy %v exceeds OPT %v", trial, greedyVal, opt)
		}
	}
}

// TestGreedySpreadsIdenticalSensors reproduces the paper's intuition:
// with one target, identical probabilities and ρ+1 slots, diminishing
// returns push the greedy to spread sensors evenly across slots.
func TestGreedySpreadsIdenticalSensors(t *testing.T) {
	const n, p = 8, 0.4
	probs := make(map[int]float64, n)
	for v := 0; v < n; v++ {
		probs[v] = p
	}
	u, err := submodular.NewDetectionUtility(n, []submodular.DetectionTarget{
		{Weight: 1, Probs: probs},
	})
	if err != nil {
		t.Fatal(err)
	}
	in := Instance{
		N:       n,
		Period:  period(t, 3),
		Factory: func() submodular.RemovalOracle { return u.Oracle() },
	}
	s, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	sizes := s.SlotSizes()
	for slot, sz := range sizes {
		if sz != 2 {
			t.Errorf("slot %d has %d sensors, want 2 (even spread of 8 over 4)", slot, sz)
		}
	}
}

func TestLazyGreedyMatchesEagerUtility(t *testing.T) {
	rng := stats.NewRNG(13)
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(10)
		m := 1 + rng.Intn(4)
		in, _ := detectionInstance(t, rng, n, m, float64(1+rng.Intn(4)))
		eager, err := Greedy(in)
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := LazyGreedy(in)
		if err != nil {
			t.Fatal(err)
		}
		ev := eager.PeriodUtility(in.Factory)
		lv := lazy.PeriodUtility(in.Factory)
		if math.Abs(ev-lv) > 1e-9 {
			t.Errorf("trial %d: eager %v != lazy %v", trial, ev, lv)
		}
		if err := lazy.CheckFeasible(in.Period); err != nil {
			t.Error(err)
		}
	}
}

// TestLazyGreedyRemovalMode pins LazyGreedy's removal regime: at ρ < 1
// it returns a removal-mode schedule, Greedy's and ReferenceGreedy's
// bit for bit.
func TestLazyGreedyRemovalMode(t *testing.T) {
	rng := stats.NewRNG(14)
	for _, rho := range []float64{0.5, 1.0 / 3} {
		in, _ := detectionInstance(t, rng, 9, 3, rho)
		lazy, err := LazyGreedy(in)
		if err != nil {
			t.Fatalf("ρ=%v: LazyGreedy: %v", rho, err)
		}
		if lazy.Mode() != ModeRemoval {
			t.Fatalf("ρ=%v: mode %v, want removal", rho, lazy.Mode())
		}
		for name, run := range map[string]func(Instance) (*Schedule, error){
			"ReferenceGreedy": ReferenceGreedy,
			"Greedy":          Greedy,
		} {
			want, err := run(in)
			if err != nil {
				t.Fatalf("ρ=%v: %s: %v", rho, name, err)
			}
			if !assignmentsEqual(lazy.Assignment(), want.Assignment()) {
				t.Errorf("ρ=%v: LazyGreedy %v != %s %v", rho, lazy.Assignment(), name, want.Assignment())
			}
			if lv, wv := lazy.PeriodUtility(in.Factory), want.PeriodUtility(in.Factory); math.Float64bits(lv) != math.Float64bits(wv) {
				t.Errorf("ρ=%v: LazyGreedy utility %v != %s %v", rho, lv, name, wv)
			}
		}
	}
}

// TestGreedyPeriodicExtensionTheorem43 verifies that tiling the
// one-period schedule over ℒ = αT scales utility exactly by α, the
// structural fact behind Theorem 4.3.
func TestGreedyPeriodicExtensionTheorem43(t *testing.T) {
	rng := stats.NewRNG(15)
	in, _ := detectionInstance(t, rng, 8, 3, 2)
	s, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	one := s.PeriodUtility(in.Factory)
	for alpha := 2; alpha <= 5; alpha++ {
		total, err := s.TotalUtility(in.Factory, alpha*s.Period())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(total-float64(alpha)*one) > 1e-9 {
			t.Errorf("alpha=%d: total %v != alpha·period %v", alpha, total, float64(alpha)*one)
		}
	}
}

// TestGreedyMonotoneInSensors: adding sensors never hurts the greedy
// utility on the identical single-target instance (sanity property
// matching Figure 8's increasing curves).
func TestGreedyMonotoneInSensors(t *testing.T) {
	prev := 0.0
	for n := 4; n <= 24; n += 4 {
		probs := make(map[int]float64, n)
		for v := 0; v < n; v++ {
			probs[v] = 0.4
		}
		u, err := submodular.NewDetectionUtility(n, []submodular.DetectionTarget{
			{Weight: 1, Probs: probs},
		})
		if err != nil {
			t.Fatal(err)
		}
		in := Instance{
			N:       n,
			Period:  period(t, 3),
			Factory: func() submodular.RemovalOracle { return u.Oracle() },
		}
		s, err := Greedy(in)
		if err != nil {
			t.Fatal(err)
		}
		val := s.PeriodUtility(in.Factory)
		if val < prev-1e-9 {
			t.Errorf("n=%d: utility %v dropped below %v", n, val, prev)
		}
		prev = val
	}
}

// TestGreedyAllCoverUpperBound: the greedy average utility on the
// Figure-8 single-target workload stays below the paper's closed-form
// upper bound and lands close to it.
func TestGreedyAllCoverUpperBound(t *testing.T) {
	const p = 0.4
	for _, n := range []int{20, 40, 60, 80, 100} {
		probs := make(map[int]float64, n)
		for v := 0; v < n; v++ {
			probs[v] = p
		}
		u, err := submodular.NewDetectionUtility(n, []submodular.DetectionTarget{
			{Weight: 1, Probs: probs},
		})
		if err != nil {
			t.Fatal(err)
		}
		in := Instance{
			N:       n,
			Period:  period(t, 3),
			Factory: func() submodular.RemovalOracle { return u.Oracle() },
		}
		s, err := Greedy(in)
		if err != nil {
			t.Fatal(err)
		}
		avg := s.AverageUtility(in.Factory, 1)
		bound, err := PaperUpperBound(p, n, in.Period.Slots())
		if err != nil {
			t.Fatal(err)
		}
		if avg > bound+1e-9 {
			t.Errorf("n=%d: greedy average %v exceeds paper bound %v", n, avg, bound)
		}
		if avg < 0.9*bound {
			t.Errorf("n=%d: greedy average %v far below bound %v (paper reports near-optimal)",
				n, avg, bound)
		}
	}
}

func TestGreedyRemovalKeepsSensorsActive(t *testing.T) {
	// With rho = 1/2 each sensor is active exactly T-1 = 2 slots.
	rng := stats.NewRNG(16)
	in, _ := detectionInstance(t, rng, 6, 2, 0.5)
	s, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < in.N; v++ {
		active := 0
		for slot := 0; slot < s.Period(); slot++ {
			if s.IsActiveAt(v, slot) {
				active++
			}
		}
		if active != s.Period()-1 {
			t.Errorf("sensor %d active %d slots, want %d", v, active, s.Period()-1)
		}
	}
}

func TestGreedyCoverageUtility(t *testing.T) {
	// Works against the region-style coverage oracle too.
	items := []submodular.CoverageItem{
		{Value: 5, CoveredBy: []int{0, 1}},
		{Value: 3, CoveredBy: []int{1, 2}},
		{Value: 2, CoveredBy: []int{3}},
	}
	u, err := submodular.NewCoverageUtility(4, items)
	if err != nil {
		t.Fatal(err)
	}
	in := Instance{
		N:       4,
		Period:  period(t, 1),
		Factory: func() submodular.RemovalOracle { return u.Oracle() },
	}
	s, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	got := s.PeriodUtility(in.Factory)
	opt := bruteForceOptimum(u, 4, 2, ModePlacement)
	if got < opt/2-1e-9 || got > opt+1e-9 {
		t.Errorf("coverage greedy = %v, OPT = %v", got, opt)
	}
}

func detectionInstanceRhoHalfFactory(t *testing.T, u *submodular.DetectionUtility) OracleFactory {
	t.Helper()
	return func() submodular.RemovalOracle { return u.Oracle() }
}

func TestGreedyDeterministic(t *testing.T) {
	rng := stats.NewRNG(17)
	u := testUtility(t, rng, 9, 3)
	p, err := energy.PeriodFromRho(2)
	if err != nil {
		t.Fatal(err)
	}
	in := Instance{N: 9, Period: p, Factory: detectionInstanceRhoHalfFactory(t, u)}
	a, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	av, bv := a.Assignment(), b.Assignment()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatal("greedy is nondeterministic on identical input")
		}
	}
}

func TestLazyGreedyRemovalMatchesEager(t *testing.T) {
	rng := stats.NewRNG(18)
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(8)
		m := 1 + rng.Intn(3)
		inv := float64(2 + rng.Intn(3)) // 1/rho in {2,3,4}
		in, _ := detectionInstance(t, rng, n, m, 1/inv)
		eager, err := Greedy(in)
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := LazyGreedy(in)
		if err != nil {
			t.Fatal(err)
		}
		ev := eager.PeriodUtility(in.Factory)
		lv := lazy.PeriodUtility(in.Factory)
		if math.Abs(ev-lv) > 1e-9 {
			t.Errorf("trial %d: eager %v != lazy removal %v", trial, ev, lv)
		}
		if err := lazy.CheckFeasible(in.Period); err != nil {
			t.Error(err)
		}
	}
}

// TestGreedyApproximationCoverage verifies the 1/2 bound on weighted
// coverage utilities (Equation 2 form) against brute force, in both
// regimes.
func TestGreedyApproximationCoverage(t *testing.T) {
	rng := stats.NewRNG(20)
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(4)
		items := make([]submodular.CoverageItem, 3+rng.Intn(6))
		for i := range items {
			var covered []int
			for v := 0; v < n; v++ {
				if rng.Bernoulli(0.5) {
					covered = append(covered, v)
				}
			}
			if len(covered) == 0 {
				covered = []int{rng.Intn(n)}
			}
			items[i] = submodular.CoverageItem{
				Value:     rng.UniformRange(0.2, 3),
				CoveredBy: covered,
			}
		}
		u, err := submodular.NewCoverageUtility(n, items)
		if err != nil {
			t.Fatal(err)
		}
		rho := []float64{0.5, 1, 2, 3}[rng.Intn(4)]
		in := Instance{
			N:       n,
			Period:  period(t, rho),
			Factory: func() submodular.RemovalOracle { return u.Oracle() },
		}
		s, err := Greedy(in)
		if err != nil {
			t.Fatal(err)
		}
		gv := s.PeriodUtility(in.Factory)
		opt := bruteForceOptimum(u, n, in.Period.Slots(), s.Mode())
		if gv < opt/2-1e-9 {
			t.Errorf("trial %d (rho=%v): coverage greedy %v < OPT/2 (OPT=%v)", trial, rho, gv, opt)
		}
		if gv > opt+1e-9 {
			t.Errorf("trial %d: greedy above OPT", trial)
		}
	}
}
