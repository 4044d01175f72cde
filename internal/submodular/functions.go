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

// ConcaveCardinalityUtility is U(S) = g(|S|) for a concave
// non-decreasing g with g(0) = 0, supplied as the marginal sequence
// g(k+1)−g(k). It models homogeneous-sensor utilities such as the
// single-target identical-coverage case.
type ConcaveCardinalityUtility struct {
	n     int
	prefG []float64 // prefG[k] = g(k)
}

var _ Function = (*ConcaveCardinalityUtility)(nil)

// NewConcaveCardinalityUtility builds U(S) = g(|S|) from g evaluated at
// 0..n. g must satisfy g(0)=0, be non-decreasing, and have
// non-increasing increments (concavity); violations are rejected so the
// greedy guarantees stay valid.
func NewConcaveCardinalityUtility(g []float64) (*ConcaveCardinalityUtility, error) {
	if len(g) == 0 {
		return nil, fmt.Errorf("submodular: empty g table")
	}
	if g[0] != 0 {
		return nil, fmt.Errorf("submodular: g(0) = %v, want 0", g[0])
	}
	const tol = 1e-12
	for k := 1; k < len(g); k++ {
		if g[k] < g[k-1]-tol {
			return nil, fmt.Errorf("submodular: g not non-decreasing at k=%d", k)
		}
		if k >= 2 && g[k]-g[k-1] > g[k-1]-g[k-2]+tol {
			return nil, fmt.Errorf("submodular: g not concave at k=%d", k)
		}
	}
	return &ConcaveCardinalityUtility{
		n:     len(g) - 1,
		prefG: append([]float64(nil), g...),
	}, nil
}

// DetectionG returns the g table for the paper's single-target
// evaluation utility g(k) = 1 − (1−p)^k, for k = 0..n.
func DetectionG(p float64, n int) []float64 {
	g := make([]float64, n+1)
	q := 1.0
	for k := 1; k <= n; k++ {
		q *= 1 - p
		g[k] = 1 - q
	}
	return g
}

// GroundSize implements Function.
func (u *ConcaveCardinalityUtility) GroundSize() int { return u.n }

// Eval implements Function.
func (u *ConcaveCardinalityUtility) Eval(set []int) float64 {
	seen := bitset.New(u.n)
	for _, v := range set {
		checkElem(v, u.n)
		seen.Add(v)
	}
	return u.prefG[seen.Count()]
}

// SumFunction is the sum of several submodular functions over the same
// ground set — the paper's overall utility f(U_1,…,U_m) = Σ U_i.
type SumFunction struct {
	n   int
	fns []Function
}

var _ Function = (*SumFunction)(nil)

// NewSumFunction builds the sum. All component functions must agree on
// the ground-set size.
func NewSumFunction(fns ...Function) (*SumFunction, error) {
	if len(fns) == 0 {
		return nil, fmt.Errorf("submodular: empty sum")
	}
	n := fns[0].GroundSize()
	for i, fn := range fns {
		if fn == nil {
			return nil, fmt.Errorf("submodular: component %d is nil", i)
		}
		if fn.GroundSize() != n {
			return nil, fmt.Errorf(
				"submodular: component %d ground size %d != %d", i, fn.GroundSize(), n)
		}
	}
	return &SumFunction{n: n, fns: append([]Function(nil), fns...)}, nil
}

// GroundSize implements Function.
func (s *SumFunction) GroundSize() int { return s.n }

// Eval implements Function.
func (s *SumFunction) Eval(set []int) float64 {
	var total float64
	for _, fn := range s.fns {
		total += fn.Eval(set)
	}
	return total
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
