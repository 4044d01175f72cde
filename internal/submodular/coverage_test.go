package submodular

import (
	"math"
	"testing"

	"cool/internal/stats"
)

func randomCoverageUtility(t *testing.T, rng *stats.RNG, n, items int) *CoverageUtility {
	t.Helper()
	list := make([]CoverageItem, items)
	for i := range list {
		var covered []int
		for v := 0; v < n; v++ {
			if rng.Bernoulli(0.4) {
				covered = append(covered, v)
			}
		}
		list[i] = CoverageItem{Value: rng.UniformRange(0.1, 3), CoveredBy: covered}
	}
	u, err := NewCoverageUtility(n, list)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestNewCoverageUtilityValidation(t *testing.T) {
	if _, err := NewCoverageUtility(-1, nil); err == nil {
		t.Error("negative ground size accepted")
	}
	bad := []CoverageItem{
		{Value: 0, CoveredBy: []int{0}},
		{Value: -1, CoveredBy: []int{0}},
		{Value: math.Inf(1), CoveredBy: []int{0}},
		{Value: 1, CoveredBy: []int{9}},
		{Value: 1, CoveredBy: []int{-2}},
		{Value: 1, CoveredBy: []int{0, 0}},
	}
	for i, item := range bad {
		if _, err := NewCoverageUtility(3, []CoverageItem{item}); err == nil {
			t.Errorf("case %d: invalid item accepted", i)
		}
	}
}

func TestCoverageEvalKnown(t *testing.T) {
	// Paper Eq. (2): U(S) = Σ I_i(S)·w_i·|A_i| — items are subregions.
	u, err := NewCoverageUtility(3, []CoverageItem{
		{Value: 2, CoveredBy: []int{0}},
		{Value: 3, CoveredBy: []int{0, 1}},
		{Value: 5, CoveredBy: []int{2}},
		{Value: 7, CoveredBy: nil}, // uncoverable background
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := u.Eval(nil); got != 0 {
		t.Errorf("U(∅) = %v", got)
	}
	if got := u.Eval([]int{0}); got != 5 {
		t.Errorf("U({0}) = %v, want 5", got)
	}
	if got := u.Eval([]int{1}); got != 3 {
		t.Errorf("U({1}) = %v, want 3", got)
	}
	if got := u.Eval([]int{0, 1, 2}); got != 10 {
		t.Errorf("U(all) = %v, want 10", got)
	}
	if got := u.Eval([]int{2, 2}); got != 5 {
		t.Errorf("duplicate eval = %v, want 5", got)
	}
	if got := u.TotalValue(); got != 10 {
		t.Errorf("TotalValue = %v, want 10 (uncoverable item excluded)", got)
	}
	if u.NumItems() != 4 {
		t.Errorf("NumItems = %d", u.NumItems())
	}
}

func TestCoverageIsSubmodularMonotone(t *testing.T) {
	rng := stats.NewRNG(41)
	for trial := 0; trial < 5; trial++ {
		u := randomCoverageUtility(t, rng, 6, 10)
		if err := IsNormalized(u, 0); err != nil {
			t.Error(err)
		}
		if err := IsMonotone(u, 1e-9); err != nil {
			t.Error(err)
		}
		if err := IsSubmodular(u, 1e-9); err != nil {
			t.Error(err)
		}
	}
}

func TestCoverageOracleMatchesEval(t *testing.T) {
	rng := stats.NewRNG(42)
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(8)
		u := randomCoverageUtility(t, rng, n, 1+rng.Intn(12))
		o := u.Oracle()
		var set []int
		for _, v := range rng.Perm(n) {
			wantGain := u.Eval(append(append([]int{}, set...), v)) - u.Eval(set)
			if got := o.Gain(v); math.Abs(got-wantGain) > 1e-9 {
				t.Fatalf("Gain(%d) = %v, want %v", v, got, wantGain)
			}
			o.Add(v)
			set = append(set, v)
			if math.Abs(o.Value()-u.Eval(set)) > 1e-9 {
				t.Fatalf("value %v != eval %v", o.Value(), u.Eval(set))
			}
		}
	}
}

func TestCoverageOracleRemoveMatchesEval(t *testing.T) {
	rng := stats.NewRNG(43)
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(8)
		u := randomCoverageUtility(t, rng, n, 1+rng.Intn(12))
		o := u.FullOracle()
		set := make(map[int]bool, n)
		for v := 0; v < n; v++ {
			set[v] = true
		}
		members := func() []int {
			var s []int
			for v := range set {
				s = append(s, v)
			}
			return s
		}
		if math.Abs(o.Value()-u.Eval(members())) > 1e-9 {
			t.Fatal("FullOracle value mismatch")
		}
		for _, v := range rng.Perm(n)[:1+rng.Intn(n)] {
			cur := u.Eval(members())
			delete(set, v)
			wantLoss := cur - u.Eval(members())
			if got := o.Loss(v); math.Abs(got-wantLoss) > 1e-9 {
				t.Fatalf("Loss(%d) = %v, want %v", v, got, wantLoss)
			}
			o.Remove(v)
			if math.Abs(o.Value()-u.Eval(members())) > 1e-9 {
				t.Fatalf("value %v != eval %v after Remove", o.Value(), u.Eval(members()))
			}
		}
	}
}

func TestCoverageOracleIdempotentOps(t *testing.T) {
	u, err := NewCoverageUtility(2, []CoverageItem{
		{Value: 1, CoveredBy: []int{0, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	o := u.Oracle()
	o.Add(0)
	o.Add(0)
	if o.Value() != 1 {
		t.Errorf("value = %v after double Add", o.Value())
	}
	o.Remove(0)
	o.Remove(0)
	if o.Value() != 0 {
		t.Errorf("value = %v after double Remove", o.Value())
	}
	if o.Gain(1) != 1 {
		t.Errorf("Gain(1) = %v after removals", o.Gain(1))
	}
}

func TestCoverageOraclePanicsOutOfRange(t *testing.T) {
	u, err := NewCoverageUtility(1, []CoverageItem{{Value: 1, CoveredBy: []int{0}}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	u.Oracle().Add(-1)
}
