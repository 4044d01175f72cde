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

// TestGreedyMatchesReference is the determinism test: for placement
// (ρ = 3, 7) and removal (ρ = 0.5) instances, the indexed climb returns
// the seed's uncached reference scan's schedule bit for bit.
func TestGreedyMatchesReference(t *testing.T) {
	rng := stats.NewRNG(101)
	for _, rho := range []float64{3, 7, 0.5} {
		in, _ := detectionInstance(t, rng, 24, 6, rho)
		got, err := Greedy(in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ReferenceGreedy(in)
		if err != nil {
			t.Fatal(err)
		}
		if got.Mode() != want.Mode() || !assignmentsEqual(got.Assignment(), want.Assignment()) {
			t.Fatalf("ρ=%v: Greedy %v %v != ReferenceGreedy %v %v", rho, got.Mode(), got.Assignment(), want.Mode(), want.Assignment())
		}
	}
}

// slotNaNOracle makes sensor 0's loss NaN in one slot only.
type slotNaNOracle struct {
	submodular.RemovalOracle
	nan bool
}

func (o slotNaNOracle) Loss(v int) float64 {
	if o.nan && v == 0 {
		return math.NaN()
	}
	return o.RemovalOracle.Loss(v)
}

// TestGreedyRemovalNaNInLaterSlot holds the removal climb to the dense
// scan when the lowest pending sensor's loss is NaN in slot 1 only. The
// dense scan's first-pair rule lets a NaN win at (first pending, slot
// 0) alone, so elsewhere the NaN is skipped and must not hide column
// 1's minimum. Sparse coverage keeps most losses positive and distinct,
// so sensor 0 stays pending for several steps.
func TestGreedyRemovalNaNInLaterSlot(t *testing.T) {
	rng := stats.NewRNG(61)
	for trial := 0; trial < 200; trial++ {
		n := 6 + rng.Intn(6)
		items := make([]submodular.CoverageItem, 10)
		for i := range items {
			covered := []int{rng.Intn(n)}
			for v := 0; v < n; v++ {
				if rng.Bernoulli(0.2) && v != covered[0] {
					covered = append(covered, v)
				}
			}
			items[i] = submodular.CoverageItem{Value: rng.UniformRange(0.1, 2), CoveredBy: covered}
		}
		u, err := submodular.NewCoverageUtility(n, items)
		if err != nil {
			t.Fatal(err)
		}
		base := Instance{N: n, Period: period(t, 1.0/3), Factory: func() submodular.RemovalOracle { return u.Oracle() }}
		// A fresh instance per engine: both engines build their slot
		// oracles by calling the factory once per slot, in slot order.
		nanInSlot1 := func() Instance {
			in, calls := base, 0
			in.Factory = func() submodular.RemovalOracle {
				o := slotNaNOracle{RemovalOracle: base.Factory(), nan: calls == 1}
				calls++
				return o
			}
			return in
		}
		got, err := Greedy(nanInSlot1())
		if err != nil {
			t.Fatal(err)
		}
		want, err := ReferenceGreedy(nanInSlot1())
		if err != nil {
			t.Fatal(err)
		}
		if !assignmentsEqual(got.Assignment(), want.Assignment()) {
			t.Fatalf("trial %d (n=%d): Greedy %v != ReferenceGreedy %v", trial, base.N, got.Assignment(), want.Assignment())
		}
	}
}
