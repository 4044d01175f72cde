package submodular

import (
	"math"
	"testing"
	"testing/quick"

	"cool/internal/stats"
)

func TestLogSumUtilityValidation(t *testing.T) {
	if _, err := NewLogSumUtility([]float64{-1}); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := NewLogSumUtility([]float64{math.NaN()}); err == nil {
		t.Error("NaN size accepted")
	}
	if _, err := NewLogSumUtility(nil); err != nil {
		t.Error("empty ground set rejected")
	}
}

func TestLogSumEval(t *testing.T) {
	u, err := NewLogSumUtility([]float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := u.Eval(nil); got != 0 {
		t.Errorf("U(∅) = %v", got)
	}
	if got, want := u.Eval([]int{0, 2}), math.Log1p(5); got != want {
		t.Errorf("U({0,2}) = %v, want %v", got, want)
	}
	if got, want := u.Eval([]int{1, 1}), math.Log1p(2); got != want {
		t.Errorf("duplicate eval = %v, want %v", got, want)
	}
}

func TestLogSumIsSubmodularMonotone(t *testing.T) {
	u, err := NewLogSumUtility([]float64{3, 1, 4, 1, 5})
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

func TestLogSumOracleMatchesEval(t *testing.T) {
	rng := stats.NewRNG(51)
	sizes := make([]float64, 8)
	for i := range sizes {
		sizes[i] = float64(rng.Intn(20))
	}
	u, err := NewLogSumUtility(sizes)
	if err != nil {
		t.Fatal(err)
	}
	o := u.Oracle()
	var set []int
	for _, v := range rng.Perm(len(sizes)) {
		wantGain := u.Eval(append(append([]int{}, set...), v)) - u.Eval(set)
		if got := o.Gain(v); math.Abs(got-wantGain) > 1e-12 {
			t.Fatalf("Gain(%d) = %v, want %v", v, got, wantGain)
		}
		o.Add(v)
		set = append(set, v)
		if math.Abs(o.Value()-u.Eval(set)) > 1e-12 {
			t.Fatalf("value mismatch")
		}
	}
	// Now remove everything again.
	for _, v := range set {
		loss := o.Loss(v)
		before := o.Value()
		o.Remove(v)
		if math.Abs(before-loss-o.Value()) > 1e-12 {
			t.Fatalf("Remove(%d) inconsistent with Loss", v)
		}
	}
	if math.Abs(o.Value()) > 1e-12 {
		t.Errorf("value after removing all = %v", o.Value())
	}
}

func TestConcaveCardinalityValidation(t *testing.T) {
	if _, err := NewConcaveCardinalityUtility(nil); err == nil {
		t.Error("empty table accepted")
	}
	if _, err := NewConcaveCardinalityUtility([]float64{1, 2}); err == nil {
		t.Error("g(0) != 0 accepted")
	}
	if _, err := NewConcaveCardinalityUtility([]float64{0, 2, 1}); err == nil {
		t.Error("decreasing g accepted")
	}
	if _, err := NewConcaveCardinalityUtility([]float64{0, 1, 3}); err == nil {
		t.Error("convex g accepted")
	}
}

func TestConcaveCardinalityEval(t *testing.T) {
	u, err := NewConcaveCardinalityUtility([]float64{0, 5, 8, 9})
	if err != nil {
		t.Fatal(err)
	}
	if u.GroundSize() != 3 {
		t.Errorf("GroundSize = %d", u.GroundSize())
	}
	if got := u.Eval([]int{1}); got != 5 {
		t.Errorf("g(1) = %v", got)
	}
	if got := u.Eval([]int{0, 2}); got != 8 {
		t.Errorf("g(2) = %v", got)
	}
	if got := u.Eval([]int{0, 0, 2}); got != 8 {
		t.Errorf("duplicate-insensitive g = %v", got)
	}
	if err := IsSubmodular(u, 1e-12); err != nil {
		t.Error(err)
	}
	if err := IsMonotone(u, 1e-12); err != nil {
		t.Error(err)
	}
}

func TestDetectionG(t *testing.T) {
	g := DetectionG(0.4, 3)
	want := []float64{0, 0.4, 0.64, 0.784}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-12 {
			t.Errorf("g[%d] = %v, want %v", i, g[i], want[i])
		}
	}
	u, err := NewConcaveCardinalityUtility(g)
	if err != nil {
		t.Fatalf("DetectionG table rejected: %v", err)
	}
	if err := IsSubmodular(u, 1e-12); err != nil {
		t.Error(err)
	}
}

func TestSumFunction(t *testing.T) {
	a, err := NewLogSumUtility([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCoverageUtility(3, []CoverageItem{{Value: 4, CoveredBy: []int{1}}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSumFunction(a, b)
	if err != nil {
		t.Fatal(err)
	}
	set := []int{1, 2}
	if got, want := s.Eval(set), a.Eval(set)+b.Eval(set); math.Abs(got-want) > 1e-12 {
		t.Errorf("sum eval = %v, want %v", got, want)
	}
	if err := IsSubmodular(s, 1e-9); err != nil {
		t.Error(err)
	}
}

func TestSumFunctionValidation(t *testing.T) {
	if _, err := NewSumFunction(); err == nil {
		t.Error("empty sum accepted")
	}
	a, _ := NewLogSumUtility([]float64{1})
	b, _ := NewLogSumUtility([]float64{1, 2})
	if _, err := NewSumFunction(a, b); err == nil {
		t.Error("mismatched ground sizes accepted")
	}
	if _, err := NewSumFunction(a, nil); err == nil {
		t.Error("nil component accepted")
	}
}

// TestResidualSubmodularLemma42 verifies Lemma 4.2: the contraction
// U'(A) = U(A∪{v}) − U({v}) of a submodular function remains
// submodular (and monotone).
func TestResidualSubmodularLemma42(t *testing.T) {
	rng := stats.NewRNG(52)
	for trial := 0; trial < 10; trial++ {
		u := randomDetectionUtility(t, rng, 6, 3)
		fixed := []int{rng.Intn(6)}
		r, err := NewResidualFunction(u, fixed)
		if err != nil {
			t.Fatal(err)
		}
		if err := IsNormalized(r, 1e-9); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
		if err := IsMonotone(r, 1e-9); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
		if err := IsSubmodular(r, 1e-9); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

func TestResidualValidation(t *testing.T) {
	if _, err := NewResidualFunction(nil, nil); err == nil {
		t.Error("nil function accepted")
	}
	u, _ := NewLogSumUtility([]float64{1, 2})
	if _, err := NewResidualFunction(u, []int{5}); err == nil {
		t.Error("out-of-range fixed element accepted")
	}
}

func TestResidualEval(t *testing.T) {
	u, err := NewLogSumUtility([]float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewResidualFunction(u, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	got := r.Eval([]int{1})
	want := u.Eval([]int{0, 1}) - u.Eval([]int{0})
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("residual eval = %v, want %v", got, want)
	}
	// Fixed elements inside the query set are absorbed.
	if got := r.Eval([]int{0}); math.Abs(got) > 1e-12 {
		t.Errorf("residual of fixed element = %v, want 0", got)
	}
}

func TestEvalOracleMatchesDirect(t *testing.T) {
	rng := stats.NewRNG(53)
	u := randomDetectionUtility(t, rng, 7, 3)
	o := NewEvalOracle(u)
	fast := u.Oracle()
	for _, v := range rng.Perm(7)[:5] {
		if math.Abs(o.Gain(v)-fast.Gain(v)) > 1e-9 {
			t.Fatalf("EvalOracle.Gain(%d) disagrees with fast oracle", v)
		}
		o.Add(v)
		fast.Add(v)
		if math.Abs(o.Value()-fast.Value()) > 1e-9 {
			t.Fatal("EvalOracle value diverged")
		}
	}
	// Removal path.
	for _, v := range []int{0, 1, 2, 3, 4, 5, 6} {
		if math.Abs(o.Loss(v)-fast.Loss(v)) > 1e-9 {
			t.Fatalf("EvalOracle.Loss(%d) disagrees", v)
		}
		o.Remove(v)
		fast.Remove(v)
	}
	if math.Abs(o.Value()) > 1e-9 {
		t.Errorf("value after removing all = %v", o.Value())
	}
}

func TestIsSubmodularCatchesViolation(t *testing.T) {
	// A supermodular function: U(S) = |S|^2 (as g table: 0,1,4 violates
	// concavity check, so craft via raw Function).
	f := funcAdapter{n: 3, eval: func(set []int) float64 {
		k := float64(len(dedup(set)))
		return k * k
	}}
	if err := IsSubmodular(f, 1e-12); err == nil {
		t.Error("supermodular function passed IsSubmodular")
	}
	if err := IsMonotone(f, 1e-12); err != nil {
		t.Error("|S|^2 is monotone but was rejected")
	}
}

func TestIsMonotoneCatchesViolation(t *testing.T) {
	f := funcAdapter{n: 2, eval: func(set []int) float64 {
		return -float64(len(dedup(set)))
	}}
	if err := IsMonotone(f, 1e-12); err == nil {
		t.Error("decreasing function passed IsMonotone")
	}
}

func TestIsNormalizedCatchesViolation(t *testing.T) {
	f := funcAdapter{n: 1, eval: func(set []int) float64 { return 1 }}
	if err := IsNormalized(f, 1e-12); err == nil {
		t.Error("non-normalized function passed IsNormalized")
	}
}

func TestCheckersRejectLargeGroundSets(t *testing.T) {
	f := funcAdapter{n: 64, eval: func(set []int) float64 { return 0 }}
	if err := IsSubmodular(f, 0); err == nil {
		t.Error("IsSubmodular accepted 64-element ground set")
	}
	if err := IsMonotone(f, 0); err == nil {
		t.Error("IsMonotone accepted 64-element ground set")
	}
}

type funcAdapter struct {
	n    int
	eval func([]int) float64
}

func (f funcAdapter) GroundSize() int        { return f.n }
func (f funcAdapter) Eval(set []int) float64 { return f.eval(set) }

func dedup(set []int) []int {
	seen := make(map[int]bool, len(set))
	var out []int
	for _, v := range set {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func TestLogSumGainPositiveProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 10 {
			return true
		}
		sizes := make([]float64, len(raw))
		for i, b := range raw {
			sizes[i] = float64(b % 50)
		}
		u, err := NewLogSumUtility(sizes)
		if err != nil {
			return false
		}
		o := u.Oracle()
		for v := range sizes {
			if o.Gain(v) < 0 {
				return false
			}
			o.Add(v)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
