package submodular

import (
	"fmt"
	"math"

	"cool/internal/bitset"
)

// BudgetAdditiveUtility is U(S) = min(Budget, Σ_{v∈S} w_v): additive
// value capped at a saturation budget. It models data-collection
// scenarios where the sink can absorb only so much traffic per slot;
// the cap is what makes the function submodular rather than modular.
type BudgetAdditiveUtility struct {
	weights []float64
	budget  float64
}

var _ Function = (*BudgetAdditiveUtility)(nil)

// NewBudgetAdditiveUtility builds the utility. Weights must be
// non-negative and the budget positive.
func NewBudgetAdditiveUtility(weights []float64, budget float64) (*BudgetAdditiveUtility, error) {
	if !(budget > 0) || math.IsInf(budget, 0) {
		return nil, fmt.Errorf("submodular: invalid budget %v", budget)
	}
	for i, w := range weights {
		if w < 0 || math.IsInf(w, 0) || math.IsNaN(w) {
			return nil, fmt.Errorf("submodular: weight[%d] = %v invalid", i, w)
		}
	}
	return &BudgetAdditiveUtility{
		weights: append([]float64(nil), weights...),
		budget:  budget,
	}, nil
}

// GroundSize implements Function.
func (u *BudgetAdditiveUtility) GroundSize() int { return len(u.weights) }

// Budget returns the saturation cap.
func (u *BudgetAdditiveUtility) Budget() float64 { return u.budget }

// Eval implements Function.
func (u *BudgetAdditiveUtility) Eval(set []int) float64 {
	seen := bitset.New(len(u.weights))
	var sum float64
	for _, v := range set {
		checkElem(v, len(u.weights))
		if seen.Contains(v) {
			continue
		}
		seen.Add(v)
		sum += u.weights[v]
	}
	return math.Min(u.budget, sum)
}

// Oracle returns an incremental oracle for the empty set.
func (u *BudgetAdditiveUtility) Oracle() *BudgetAdditiveOracle {
	return &BudgetAdditiveOracle{u: u, in: bitset.New(len(u.weights))}
}

// BudgetAdditiveOracle tracks the running (uncapped) sum.
type BudgetAdditiveOracle struct {
	u   *BudgetAdditiveUtility
	in  bitset.Bitset
	sum float64
}

var (
	_ RemovalOracle = (*BudgetAdditiveOracle)(nil)
	_ BulkGainer    = (*BudgetAdditiveOracle)(nil)
	_ BulkLosser    = (*BudgetAdditiveOracle)(nil)
)

// capped clamps a running sum into [0, budget]; the lower clamp absorbs
// the tiny negative residue floating-point subtraction can leave after
// removing every member.
func (o *BudgetAdditiveOracle) capped(sum float64) float64 {
	if sum < 0 {
		return 0
	}
	return math.Min(o.u.budget, sum)
}

// Value implements Oracle.
func (o *BudgetAdditiveOracle) Value() float64 { return o.capped(o.sum) }

// Contains implements Oracle.
func (o *BudgetAdditiveOracle) Contains(v int) bool {
	checkElem(v, len(o.u.weights))
	return o.in.Contains(v)
}

// Gain implements Oracle.
func (o *BudgetAdditiveOracle) Gain(v int) float64 {
	checkElem(v, len(o.u.weights))
	if o.in.Contains(v) {
		return 0
	}
	return o.capped(o.sum+o.u.weights[v]) - o.Value()
}

// BulkGain implements BulkGainer; every element's gain is independent,
// so the bulk form is a single contiguous sweep over the weights.
func (o *BudgetAdditiveOracle) BulkGain(out []float64) {
	n := len(o.u.weights)
	if len(out) != n {
		panic(fmt.Sprintf("submodular: BulkGain buffer %d != ground size %d", len(out), n))
	}
	cur := o.Value()
	for v := 0; v < n; v++ {
		if o.in.Contains(v) {
			out[v] = 0
		} else {
			out[v] = o.capped(o.sum+o.u.weights[v]) - cur
		}
	}
}

// Add implements Oracle.
func (o *BudgetAdditiveOracle) Add(v int) {
	checkElem(v, len(o.u.weights))
	if o.in.Contains(v) {
		return
	}
	o.in.Add(v)
	o.sum += o.u.weights[v]
}

// Loss implements RemovalOracle.
func (o *BudgetAdditiveOracle) Loss(v int) float64 {
	checkElem(v, len(o.u.weights))
	if !o.in.Contains(v) {
		return 0
	}
	return o.Value() - o.capped(o.sum-o.u.weights[v])
}

// BulkLoss implements BulkLosser.
func (o *BudgetAdditiveOracle) BulkLoss(out []float64) {
	n := len(o.u.weights)
	if len(out) != n {
		panic(fmt.Sprintf("submodular: BulkLoss buffer %d != ground size %d", len(out), n))
	}
	cur := o.Value()
	for v := 0; v < n; v++ {
		if o.in.Contains(v) {
			out[v] = cur - o.capped(o.sum-o.u.weights[v])
		} else {
			out[v] = 0
		}
	}
}

// Remove implements RemovalOracle.
func (o *BudgetAdditiveOracle) Remove(v int) {
	checkElem(v, len(o.u.weights))
	if !o.in.Contains(v) {
		return
	}
	o.in.Remove(v)
	o.sum -= o.u.weights[v]
}

// ConcurrentReadSafe reports that Value/Gain/Loss/Contains are pure
// reads over the oracle's running sum and may run from many goroutines
// concurrently (absent a concurrent Add/Remove).
func (o *BudgetAdditiveOracle) ConcurrentReadSafe() bool { return true }

// Clone implements Oracle.
func (o *BudgetAdditiveOracle) Clone() Oracle {
	return &BudgetAdditiveOracle{u: o.u, in: o.in.Clone(), sum: o.sum}
}
