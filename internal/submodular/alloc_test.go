package submodular

import (
	"math/rand"
	"testing"
)

// This file is the allocation-regression gate for the oracle hot path:
// Gain, Loss, Contains and the bulk marginals must not allocate at all,
// and Add/Remove must stay within one allocation (today: zero). If a
// future change reintroduces per-call maps or slice growth on these
// paths, these tests fail loudly rather than silently eroding the flat
// memory layout.

// allocTestUtilities builds one oracle of every specialized kind over a
// shared random incidence structure.
func allocTestOracles(tb testing.TB, n int) map[string]RemovalOracle {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	m := n / 2
	targets := make([]DetectionTarget, m)
	items := make([]CoverageItem, m)
	weights := make([]float64, n)
	sizes := make([]float64, n)
	for v := 0; v < n; v++ {
		weights[v] = rng.Float64()
		sizes[v] = rng.Float64() * 3
	}
	for i := 0; i < m; i++ {
		probs := make(map[int]float64)
		var covered []int
		deg := 1 + rng.Intn(8)
		for k := 0; k < deg; k++ {
			v := rng.Intn(n)
			if _, dup := probs[v]; dup {
				continue
			}
			probs[v] = rng.Float64()
			covered = append(covered, v)
		}
		targets[i] = DetectionTarget{Weight: 1 + rng.Float64(), Probs: probs}
		items[i] = CoverageItem{Value: 1 + rng.Float64(), CoveredBy: covered}
	}
	du, err := NewDetectionUtility(n, targets)
	if err != nil {
		tb.Fatal(err)
	}
	cu, err := NewCoverageUtility(n, items)
	if err != nil {
		tb.Fatal(err)
	}
	lu, err := NewLogSumUtility(sizes)
	if err != nil {
		tb.Fatal(err)
	}
	bu, err := NewBudgetAdditiveUtility(weights, float64(n)/4)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]RemovalOracle{
		"detection": du.Oracle(),
		"coverage":  cu.Oracle(),
		"logsum":    lu.Oracle(),
		"budget":    bu.Oracle(),
	}
}

func TestOracleHotPathAllocations(t *testing.T) {
	const n = 256
	for name, o := range allocTestOracles(t, n) {
		o := o
		// Seed a non-trivial set so the queries do real work.
		for v := 0; v < n; v += 3 {
			o.Add(v)
		}
		t.Run(name+"/Gain", func(t *testing.T) {
			if a := testing.AllocsPerRun(200, func() {
				for v := 0; v < n; v += 7 {
					_ = o.Gain(v)
				}
			}); a != 0 {
				t.Errorf("Gain allocated %v times per run, want 0", a)
			}
		})
		t.Run(name+"/Loss", func(t *testing.T) {
			if a := testing.AllocsPerRun(200, func() {
				for v := 0; v < n; v += 7 {
					_ = o.Loss(v)
				}
			}); a != 0 {
				t.Errorf("Loss allocated %v times per run, want 0", a)
			}
		})
		t.Run(name+"/Contains+Value", func(t *testing.T) {
			if a := testing.AllocsPerRun(200, func() {
				for v := 0; v < n; v += 7 {
					_ = o.Contains(v)
				}
				_ = o.Value()
			}); a != 0 {
				t.Errorf("Contains/Value allocated %v times per run, want 0", a)
			}
		})
		t.Run(name+"/AddRemove", func(t *testing.T) {
			// The issue gate is Add ≤ 1 alloc; the flat layout achieves 0.
			if a := testing.AllocsPerRun(200, func() {
				o.Add(1)
				o.Remove(1)
			}); a > 1 {
				t.Errorf("Add+Remove allocated %v times per run, want ≤ 1", a)
			}
		})
		t.Run(name+"/SparseBatchRefresh", func(t *testing.T) {
			sg, okG := o.(SparseGainBatchRefresher)
			sl, okL := o.(SparseLossBatchRefresher)
			if !okG && !okL {
				t.Skip("oracle has no batch sparse refresh (dense-coupling utility)")
			}
			// The sparse contract forbids allocation: the epoch-dedup
			// scratch lives in the oracle and is reused per call, the
			// changed list and column belong to the caller.
			out := make([]float64, n)
			changed := []int{2, 5, 11}
			if okG {
				o.(BulkGainer).BulkGain(out)
				if a := testing.AllocsPerRun(200, func() { sg.SparseGainRefreshAll(changed, out) }); a != 0 {
					t.Errorf("SparseGainRefreshAll allocated %v times per run, want 0", a)
				}
			}
			if okL {
				o.(BulkLosser).BulkLoss(out)
				if a := testing.AllocsPerRun(200, func() { sl.SparseLossRefreshAll(changed, out) }); a != 0 {
					t.Errorf("SparseLossRefreshAll allocated %v times per run, want 0", a)
				}
			}
		})
		t.Run(name+"/Bulk", func(t *testing.T) {
			out := make([]float64, n)
			bg, okG := o.(BulkGainer)
			bl, okL := o.(BulkLosser)
			if !okG || !okL {
				t.Fatalf("%s oracle does not implement bulk marginals", name)
			}
			if a := testing.AllocsPerRun(50, func() {
				bg.BulkGain(out)
				bl.BulkLoss(out)
			}); a != 0 {
				t.Errorf("BulkGain/BulkLoss allocated %v times per run, want 0", a)
			}
		})
	}
}

// TestDetectionEvalKernelAllocations pins the unrolled Eval kernels to
// the scalar reference's allocation budget: the kernel restructuring
// (mulScatter + weightedComplementSum) must not add a single
// allocation over the retained EvalScalar loop.
func TestDetectionEvalKernelAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, m = 200, 40
	targets := make([]DetectionTarget, m)
	for i := range targets {
		probs := make(map[int]float64)
		for v := 0; v < n; v += 1 + rng.Intn(4) {
			probs[v] = rng.Float64()
		}
		if len(probs) == 0 {
			probs[0] = 0.5
		}
		targets[i] = DetectionTarget{Weight: 1, Probs: probs}
	}
	u, err := NewDetectionUtility(n, targets)
	if err != nil {
		t.Fatal(err)
	}
	set := make([]int, 0, n/2)
	for v := 0; v < n; v += 2 {
		set = append(set, v)
	}
	scalar := testing.AllocsPerRun(100, func() { _ = u.EvalScalar(set) })
	kernel := testing.AllocsPerRun(100, func() { _ = u.Eval(set) })
	if kernel > scalar {
		t.Errorf("kernel Eval allocates %v/run, scalar reference %v/run", kernel, scalar)
	}
}

// TestEvalOracleGainAllocations pins the generic oracle's own overhead:
// a Gain or Loss query must allocate no more than one call of the
// wrapped Function's Eval does — the member scratch buffer is reused
// across calls, so the oracle itself adds zero.
func TestEvalOracleGainAllocations(t *testing.T) {
	const n = 128
	sizes := make([]float64, n)
	for i := range sizes {
		sizes[i] = float64(i%7) + 1
	}
	lu, err := NewLogSumUtility(sizes)
	if err != nil {
		t.Fatal(err)
	}
	o := NewEvalOracle(lu)
	set := make([]int, 0, n)
	for v := 0; v < n; v += 2 {
		o.Add(v)
		set = append(set, v)
	}
	evalAllocs := testing.AllocsPerRun(100, func() { _ = lu.Eval(set) })
	gainAllocs := testing.AllocsPerRun(100, func() { _ = o.Gain(1) })
	lossAllocs := testing.AllocsPerRun(100, func() { _ = o.Loss(2) })
	if gainAllocs > evalAllocs {
		t.Errorf("EvalOracle.Gain allocated %v/run, wrapped Eval alone %v/run", gainAllocs, evalAllocs)
	}
	if lossAllocs > evalAllocs {
		t.Errorf("EvalOracle.Loss allocated %v/run, wrapped Eval alone %v/run", lossAllocs, evalAllocs)
	}
}
