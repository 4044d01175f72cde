package submodular

import (
	"fmt"
	"math"

	"cool/internal/bitset"
)

// LogSumUtility is the paper's NP-hardness gadget (Theorem 3.1):
// U(S) = log(1 + Σ_{v∈S} I_v) for per-sensor integer "sizes" I_v. It is
// normalized, monotone and submodular for non-negative sizes.
type LogSumUtility struct {
	sizes []float64
}

var _ Function = (*LogSumUtility)(nil)

// NewLogSumUtility builds the gadget over len(sizes) sensors. Sizes
// must be non-negative and finite.
func NewLogSumUtility(sizes []float64) (*LogSumUtility, error) {
	for i, s := range sizes {
		if s < 0 || math.IsInf(s, 0) || math.IsNaN(s) {
			return nil, fmt.Errorf("submodular: size[%d] = %v invalid", i, s)
		}
	}
	return &LogSumUtility{sizes: append([]float64(nil), sizes...)}, nil
}

// GroundSize implements Function.
func (u *LogSumUtility) GroundSize() int { return len(u.sizes) }

// Eval implements Function.
func (u *LogSumUtility) Eval(set []int) float64 {
	seen := bitset.New(len(u.sizes))
	var sum float64
	for _, v := range set {
		checkElem(v, len(u.sizes))
		if seen.Contains(v) {
			continue
		}
		seen.Add(v)
		sum += u.sizes[v]
	}
	return math.Log1p(sum)
}

// Oracle returns an incremental oracle for the empty set.
func (u *LogSumUtility) Oracle() *LogSumOracle {
	return &LogSumOracle{u: u, in: bitset.New(len(u.sizes))}
}

// LogSumOracle tracks the running sum of member sizes.
type LogSumOracle struct {
	u   *LogSumUtility
	in  bitset.Bitset
	sum float64
}

var (
	_ RemovalOracle = (*LogSumOracle)(nil)
	_ BulkGainer    = (*LogSumOracle)(nil)
	_ BulkLosser    = (*LogSumOracle)(nil)
)

// Value implements Oracle.
func (o *LogSumOracle) Value() float64 { return math.Log1p(o.sum) }

// Contains implements Oracle.
func (o *LogSumOracle) Contains(v int) bool {
	checkElem(v, len(o.u.sizes))
	return o.in.Contains(v)
}

// Gain implements Oracle.
func (o *LogSumOracle) Gain(v int) float64 {
	checkElem(v, len(o.u.sizes))
	if o.in.Contains(v) {
		return 0
	}
	return math.Log1p(o.sum+o.u.sizes[v]) - math.Log1p(o.sum)
}

// BulkGain implements BulkGainer; every element's gain is independent,
// so the bulk form is a single contiguous branchless sweep over sizes
// followed by one word-driven pass that zeroes the members — the same
// floats per element as the branchy per-element loop (each entry is a
// plain store, no accumulation), with the per-element membership test
// and its bounds check hoisted out of the hot loop.
func (o *LogSumOracle) BulkGain(out []float64) {
	n := len(o.u.sizes)
	if len(out) != n {
		panic(fmt.Sprintf("submodular: BulkGain buffer %d != ground size %d", len(out), n))
	}
	base := math.Log1p(o.sum)
	for v, size := range o.u.sizes {
		out[v] = math.Log1p(o.sum+size) - base
	}
	o.in.ForEach(func(v int) { out[v] = 0 })
}

// Add implements Oracle.
func (o *LogSumOracle) Add(v int) {
	checkElem(v, len(o.u.sizes))
	if o.in.Contains(v) {
		return
	}
	o.in.Add(v)
	o.sum += o.u.sizes[v]
}

// Loss implements RemovalOracle.
func (o *LogSumOracle) Loss(v int) float64 {
	checkElem(v, len(o.u.sizes))
	if !o.in.Contains(v) {
		return 0
	}
	return math.Log1p(o.sum) - math.Log1p(o.sum-o.u.sizes[v])
}

// BulkLoss implements BulkLosser: one zeroing sweep, then a
// word-driven pass over the members only — the same floats per element
// as the branchy per-element loop (each entry is a plain store).
func (o *LogSumOracle) BulkLoss(out []float64) {
	n := len(o.u.sizes)
	if len(out) != n {
		panic(fmt.Sprintf("submodular: BulkLoss buffer %d != ground size %d", len(out), n))
	}
	for i := range out {
		out[i] = 0
	}
	base := math.Log1p(o.sum)
	o.in.ForEach(func(v int) {
		out[v] = base - math.Log1p(o.sum-o.u.sizes[v])
	})
}

// Remove implements RemovalOracle.
func (o *LogSumOracle) Remove(v int) {
	checkElem(v, len(o.u.sizes))
	if !o.in.Contains(v) {
		return
	}
	o.in.Remove(v)
	o.sum -= o.u.sizes[v]
}

// ResidualFunction is the contraction U'(A) = U(A ∪ F) − U(F) of a
// function onto a fixed set F. Lemma 4.2 of the paper proves it remains
// submodular; it is what the induction in the 1/2-approximation proof
// manipulates, and the tests verify the lemma on it directly.
type ResidualFunction struct {
	fn    Function
	fixed []int
	base  float64
}

var _ Function = (*ResidualFunction)(nil)

// NewResidualFunction contracts fn onto the fixed set.
func NewResidualFunction(fn Function, fixed []int) (*ResidualFunction, error) {
	if fn == nil {
		return nil, fmt.Errorf("submodular: nil function")
	}
	for _, v := range fixed {
		if v < 0 || v >= fn.GroundSize() {
			return nil, fmt.Errorf("submodular: fixed element %d out of range", v)
		}
	}
	f := append([]int(nil), fixed...)
	return &ResidualFunction{fn: fn, fixed: f, base: fn.Eval(f)}, nil
}

// GroundSize implements Function.
func (r *ResidualFunction) GroundSize() int { return r.fn.GroundSize() }

// Eval implements Function.
func (r *ResidualFunction) Eval(set []int) float64 {
	joined := make([]int, 0, len(set)+len(r.fixed))
	joined = append(joined, set...)
	joined = append(joined, r.fixed...)
	return r.fn.Eval(joined) - r.base
}
