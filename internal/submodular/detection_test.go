package submodular

import (
	"math"
	"testing"

	"cool/internal/stats"
)

// randomDetectionUtility builds a random multi-target detection utility
// for cross-checking oracles against brute-force evaluation.
func randomDetectionUtility(t *testing.T, rng *stats.RNG, n, m int) *DetectionUtility {
	t.Helper()
	targets := make([]DetectionTarget, m)
	for i := range targets {
		probs := make(map[int]float64)
		for v := 0; v < n; v++ {
			if rng.Bernoulli(0.6) {
				probs[v] = rng.Float64()
			}
		}
		if len(probs) == 0 {
			probs[rng.Intn(n)] = 0.5
		}
		targets[i] = DetectionTarget{Weight: rng.UniformRange(0.5, 2), Probs: probs}
	}
	u, err := NewDetectionUtility(n, targets)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestNewDetectionUtilityValidation(t *testing.T) {
	if _, err := NewDetectionUtility(-1, nil); err == nil {
		t.Error("negative ground size accepted")
	}
	cases := []DetectionTarget{
		{Weight: 0, Probs: map[int]float64{0: 0.5}},
		{Weight: -1, Probs: map[int]float64{0: 0.5}},
		{Weight: 1, Probs: map[int]float64{5: 0.5}},
		{Weight: 1, Probs: map[int]float64{-1: 0.5}},
		{Weight: 1, Probs: map[int]float64{0: 1.5}},
		{Weight: 1, Probs: map[int]float64{0: -0.1}},
		{Weight: 1, Probs: map[int]float64{0: math.NaN()}},
	}
	for i, tgt := range cases {
		if _, err := NewDetectionUtility(2, []DetectionTarget{tgt}); err == nil {
			t.Errorf("case %d: invalid target accepted", i)
		}
	}
}

func TestDetectionEvalSingleTarget(t *testing.T) {
	u, err := NewDetectionUtility(3, []DetectionTarget{{
		Weight: 1,
		Probs:  map[int]float64{0: 0.4, 1: 0.4, 2: 0.4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := u.Eval(nil); got != 0 {
		t.Errorf("U(∅) = %v", got)
	}
	if got, want := u.Eval([]int{0}), 0.4; math.Abs(got-want) > 1e-12 {
		t.Errorf("U({0}) = %v, want %v", got, want)
	}
	if got, want := u.Eval([]int{0, 1}), 1-0.36; math.Abs(got-want) > 1e-12 {
		t.Errorf("U({0,1}) = %v, want %v", got, want)
	}
	// Duplicates must not double-count.
	if got, want := u.Eval([]int{0, 0, 0}), 0.4; math.Abs(got-want) > 1e-12 {
		t.Errorf("U({0,0,0}) = %v, want %v", got, want)
	}
}

func TestDetectionTotalWeight(t *testing.T) {
	u, err := NewDetectionUtility(2, []DetectionTarget{
		{Weight: 2, Probs: map[int]float64{0: 0.5}},
		{Weight: 1, Probs: map[int]float64{1: 0.25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := u.TotalWeight(), 3.0; got != want {
		t.Errorf("TotalWeight = %v, want %v", got, want)
	}
	if u.NumTargets() != 2 {
		t.Errorf("NumTargets = %d", u.NumTargets())
	}
}

func TestDetectionIsSubmodularMonotone(t *testing.T) {
	rng := stats.NewRNG(31)
	for trial := 0; trial < 5; trial++ {
		u := randomDetectionUtility(t, rng, 6, 3)
		if err := IsNormalized(u, 1e-12); err != nil {
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

func TestDetectionOracleMatchesEval(t *testing.T) {
	rng := stats.NewRNG(32)
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(8)
		u := randomDetectionUtility(t, rng, n, 1+rng.Intn(4))
		o := u.Oracle()
		var set []int
		for _, v := range perm(rng, n)[:1+rng.Intn(n)] {
			gain := o.Gain(v)
			before := o.Value()
			wantGain := u.Eval(append(append([]int{}, set...), v)) - u.Eval(set)
			if math.Abs(gain-wantGain) > 1e-9 {
				t.Fatalf("Gain(%d) = %v, want %v", v, gain, wantGain)
			}
			o.Add(v)
			set = append(set, v)
			if math.Abs(o.Value()-before-gain) > 1e-9 {
				t.Fatalf("Add(%d) value inconsistent with Gain", v)
			}
			if math.Abs(o.Value()-u.Eval(set)) > 1e-9 {
				t.Fatalf("oracle value %v != eval %v", o.Value(), u.Eval(set))
			}
			if !o.Contains(v) {
				t.Fatalf("Contains(%d) false after Add", v)
			}
		}
	}
	// The unrolled Eval kernels reproduce the scalar loop bit for bit,
	// including on rows long enough to fill whole unrolled blocks.
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(40)
		u := randomDetectionUtility(t, rng, n, 4+rng.Intn(24))
		set := perm(rng, n)[:1+rng.Intn(n)]
		if got, want := u.Eval(set), u.EvalScalar(set); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Eval %v != EvalScalar %v", trial, got, want)
		}
	}
}

func TestDetectionOracleRemoveMatchesEval(t *testing.T) {
	rng := stats.NewRNG(33)
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(8)
		u := randomDetectionUtility(t, rng, n, 1+rng.Intn(4))
		o := u.Oracle()
		for v := 0; v < n; v++ {
			o.Add(v)
		}
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
		for _, v := range perm(rng, n)[:1+rng.Intn(n)] {
			loss := o.Loss(v)
			cur := u.Eval(members())
			delete(set, v)
			wantLoss := cur - u.Eval(members())
			if math.Abs(loss-wantLoss) > 1e-9 {
				t.Fatalf("Loss(%d) = %v, want %v", v, loss, wantLoss)
			}
			o.Remove(v)
			if math.Abs(o.Value()-u.Eval(members())) > 1e-9 {
				t.Fatalf("oracle value %v != eval %v after Remove", o.Value(), u.Eval(members()))
			}
			if o.Contains(v) {
				t.Fatalf("Contains(%d) true after Remove", v)
			}
		}
	}
}

func TestDetectionOracleCertainSensors(t *testing.T) {
	// Sensors with p = 1 exercise the zero-survival bookkeeping.
	u, err := NewDetectionUtility(3, []DetectionTarget{{
		Weight: 1,
		Probs:  map[int]float64{0: 1, 1: 1, 2: 0.5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	o := u.Oracle()
	o.Add(0)
	if math.Abs(o.Value()-1) > 1e-12 {
		t.Fatalf("value after certain sensor = %v", o.Value())
	}
	if g := o.Gain(1); g != 0 {
		t.Errorf("gain of second certain sensor = %v, want 0", g)
	}
	o.Add(1)
	// Removing one certain sensor keeps detection certain.
	if l := o.Loss(0); l != 0 {
		t.Errorf("loss of redundant certain sensor = %v, want 0", l)
	}
	o.Remove(0)
	if math.Abs(o.Value()-1) > 1e-12 {
		t.Errorf("value = %v, want 1", o.Value())
	}
	// Removing the last certain sensor drops the value to 0.
	if l := o.Loss(1); math.Abs(l-1) > 1e-12 {
		t.Errorf("loss of last certain sensor = %v, want 1", l)
	}
	o.Remove(1)
	if math.Abs(o.Value()) > 1e-12 {
		t.Errorf("value = %v, want 0", o.Value())
	}
}

func TestDetectionOracleIdempotentOps(t *testing.T) {
	u, err := NewDetectionUtility(2, []DetectionTarget{{
		Weight: 1, Probs: map[int]float64{0: 0.3, 1: 0.7},
	}})
	if err != nil {
		t.Fatal(err)
	}
	o := u.Oracle()
	o.Add(0)
	v := o.Value()
	o.Add(0)
	if o.Value() != v {
		t.Error("double Add changed value")
	}
	if o.Gain(0) != 0 {
		t.Error("Gain of member should be 0")
	}
	o.Remove(1)
	if o.Value() != v {
		t.Error("Remove of non-member changed value")
	}
	if o.Loss(1) != 0 {
		t.Error("Loss of non-member should be 0")
	}
}

func TestDetectionOraclePanicsOutOfRange(t *testing.T) {
	u, err := NewDetectionUtility(2, []DetectionTarget{{
		Weight: 1, Probs: map[int]float64{0: 0.5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Gain(7) did not panic")
		}
	}()
	u.Oracle().Gain(7)
}
