package submodular

import (
	"math"
	"math/rand"
	"testing"
)

// This file is the cross-representation property suite: the flat
// (CSR + bitset) oracles and the retained map-based MapOracle reference
// are driven through identical random mutation sequences and must agree
// on Value/Gain/Loss to within 1e-12 at every step. It is the safety
// net for the memory-layout rewrite — any indexing or accumulation bug
// in the flat layer shows up as a divergence from the representation
// that cannot share it.

const crossRepTol = 1e-12

// randomDetection builds a random detection utility. Occasional p = 1
// edges exercise the zeros bookkeeping.
func randomDetection(rng *rand.Rand, n, m int) *DetectionUtility {
	targets := make([]DetectionTarget, m)
	for i := range targets {
		probs := make(map[int]float64)
		deg := 1 + rng.Intn(6)
		for k := 0; k < deg; k++ {
			v := rng.Intn(n)
			switch rng.Intn(8) {
			case 0:
				probs[v] = 1 // exact certain detection
			case 1:
				probs[v] = 0 // covering but useless
			default:
				probs[v] = rng.Float64()
			}
		}
		targets[i] = DetectionTarget{Weight: 0.5 + rng.Float64(), Probs: probs}
	}
	u, err := NewDetectionUtility(n, targets)
	if err != nil {
		panic(err)
	}
	return u
}

func randomCoverage(rng *rand.Rand, n, m int) *CoverageUtility {
	items := make([]CoverageItem, m)
	for i := range items {
		seen := make(map[int]bool)
		var covered []int
		deg := 1 + rng.Intn(6)
		for k := 0; k < deg; k++ {
			v := rng.Intn(n)
			if seen[v] {
				continue
			}
			seen[v] = true
			covered = append(covered, v)
		}
		items[i] = CoverageItem{Value: 0.1 + rng.Float64(), CoveredBy: covered}
	}
	u, err := NewCoverageUtility(n, items)
	if err != nil {
		panic(err)
	}
	return u
}

// checkAgainstReference replays a random Add/Remove sequence on the
// specialized oracle, the bitset-backed EvalOracle, and the map-backed
// MapOracle, cross-checking all queries at every step.
func checkAgainstReference(t *testing.T, rng *rand.Rand, fn Function, oracle RemovalOracle, steps int) {
	t.Helper()
	n := fn.GroundSize()
	ref := NewMapOracle(fn)
	eval := NewEvalOracle(fn)
	oracles := []RemovalOracle{oracle, eval}
	for step := 0; step < steps; step++ {
		v := rng.Intn(n)
		switch rng.Intn(4) {
		case 0, 1:
			oracle.Add(v)
			eval.Add(v)
			ref.Add(v)
		case 2:
			oracle.Remove(v)
			eval.Remove(v)
			ref.Remove(v)
		default:
			// query-only step
		}
		q := rng.Intn(n)
		for _, o := range oracles {
			if got, want := o.Value(), ref.Value(); math.Abs(got-want) > crossRepTol {
				t.Fatalf("step %d: %T.Value() = %v, map reference %v (Δ=%g)", step, o, got, want, got-want)
			}
			if got, want := o.Gain(q), ref.Gain(q); math.Abs(got-want) > crossRepTol {
				t.Fatalf("step %d: %T.Gain(%d) = %v, map reference %v (Δ=%g)", step, o, q, got, want, got-want)
			}
			if got, want := o.Loss(q), ref.Loss(q); math.Abs(got-want) > crossRepTol {
				t.Fatalf("step %d: %T.Loss(%d) = %v, map reference %v (Δ=%g)", step, o, q, got, want, got-want)
			}
			if got, want := o.Contains(q), ref.Contains(q); got != want {
				t.Fatalf("step %d: %T.Contains(%d) = %v, map reference %v", step, o, q, got, want)
			}
		}
	}
}

func TestCrossRepresentationAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		n := 5 + rng.Intn(60)
		m := 1 + rng.Intn(2*n)
		du := randomDetection(rng, n, m)
		t.Run("detection", func(t *testing.T) {
			checkAgainstReference(t, rng, du, du.Oracle(), 120)
		})
		cu := randomCoverage(rng, n, m)
		t.Run("coverage", func(t *testing.T) {
			checkAgainstReference(t, rng, cu, cu.Oracle(), 120)
		})
		sizes := make([]float64, n)
		for i := range sizes {
			sizes[i] = rng.Float64() * 4
		}
		lu, err := NewLogSumUtility(sizes)
		if err != nil {
			t.Fatal(err)
		}
		t.Run("logsum", func(t *testing.T) {
			checkAgainstReference(t, rng, lu, lu.Oracle(), 120)
		})
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = rng.Float64()
		}
		bu, err := NewBudgetAdditiveUtility(weights, 1+rng.Float64()*float64(n)/3)
		if err != nil {
			t.Fatal(err)
		}
		t.Run("budget", func(t *testing.T) {
			checkAgainstReference(t, rng, bu, bu.Oracle(), 120)
		})
	}
}

// TestBulkMarginalsBitIdentical verifies the BulkGainer/BulkLosser
// contract the scheduling engines rely on: the bulk sweep must equal
// per-element Gain/Loss queries bit for bit (==, not within tolerance),
// for every element, at every state of a random mutation sequence.
func TestBulkMarginalsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		n := 10 + rng.Intn(80)
		m := 1 + rng.Intn(2*n)
		check := func(name string, o RemovalOracle) {
			bg := o.(BulkGainer)
			bl := o.(BulkLosser)
			out := make([]float64, n)
			for step := 0; step < 60; step++ {
				v := rng.Intn(n)
				if rng.Intn(3) == 0 {
					o.Remove(v)
				} else {
					o.Add(v)
				}
				bg.BulkGain(out)
				for u := 0; u < n; u++ {
					if got, want := out[u], o.Gain(u); got != want {
						t.Fatalf("%s trial %d step %d: BulkGain[%d] = %v, Gain = %v", name, trial, step, u, got, want)
					}
				}
				bl.BulkLoss(out)
				for u := 0; u < n; u++ {
					if got, want := out[u], o.Loss(u); got != want {
						t.Fatalf("%s trial %d step %d: BulkLoss[%d] = %v, Loss = %v", name, trial, step, u, got, want)
					}
				}
			}
		}
		check("detection", randomDetection(rng, n, m).Oracle())
		check("coverage", randomCoverage(rng, n, m).Oracle())
	}
}
