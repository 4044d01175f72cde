package submodular

import (
	"math"
	"testing"

	"cool/internal/stats"
)

func TestNewBudgetAdditiveValidation(t *testing.T) {
	if _, err := NewBudgetAdditiveUtility([]float64{1}, 0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := NewBudgetAdditiveUtility([]float64{-1}, 5); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewBudgetAdditiveUtility([]float64{math.NaN()}, 5); err == nil {
		t.Error("NaN weight accepted")
	}
}

func TestBudgetAdditiveEval(t *testing.T) {
	u, err := NewBudgetAdditiveUtility([]float64{3, 4, 5}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := u.Eval(nil); got != 0 {
		t.Errorf("U(∅) = %v", got)
	}
	if got := u.Eval([]int{0, 1}); got != 7 {
		t.Errorf("U({0,1}) = %v", got)
	}
	if got := u.Eval([]int{0, 1, 2}); got != 10 {
		t.Errorf("capped U = %v, want 10", got)
	}
	if got := u.Eval([]int{2, 2}); got != 5 {
		t.Errorf("duplicate eval = %v", got)
	}
	if u.Budget() != 10 || u.GroundSize() != 3 {
		t.Error("accessors wrong")
	}
}

func TestBudgetAdditiveIsSubmodularMonotone(t *testing.T) {
	u, err := NewBudgetAdditiveUtility([]float64{2, 7, 1, 8, 3}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := IsNormalized(u, 0); err != nil {
		t.Error(err)
	}
	if err := IsMonotone(u, 1e-12); err != nil {
		t.Error(err)
	}
	if err := IsSubmodular(u, 1e-12); err != nil {
		t.Error(err)
	}
}

func TestBudgetAdditiveOracleMatchesEval(t *testing.T) {
	rng := stats.NewRNG(91)
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(6)
		weights := make([]float64, n)
		var total float64
		for i := range weights {
			weights[i] = rng.UniformRange(0, 5)
			total += weights[i]
		}
		u, err := NewBudgetAdditiveUtility(weights, rng.UniformRange(0.3, 0.9)*total)
		if err != nil {
			t.Fatal(err)
		}
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
				t.Fatal("value mismatch")
			}
		}
		// Removal path back to empty.
		for _, v := range rng.Perm(n) {
			loss := o.Loss(v)
			before := o.Value()
			o.Remove(v)
			if math.Abs(before-loss-o.Value()) > 1e-9 {
				t.Fatalf("Remove(%d) inconsistent with Loss", v)
			}
		}
		if math.Abs(o.Value()) > 1e-9 {
			t.Errorf("value after removing all = %v", o.Value())
		}
	}
}

func TestBudgetAdditiveOracleIdempotent(t *testing.T) {
	u, err := NewBudgetAdditiveUtility([]float64{2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	o := u.Oracle()
	o.Add(0)
	o.Add(0)
	if o.Value() != 2 {
		t.Errorf("double add value = %v", o.Value())
	}
	o.Remove(1)
	if o.Value() != 2 {
		t.Error("removing non-member changed value")
	}
	if o.Loss(1) != 0 {
		t.Error("loss of non-member should be 0")
	}
}
