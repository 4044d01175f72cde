package submodular

import (
	"sort"

	"cool/internal/bitset"
)

// MapOracle is the original map[int]bool-backed re-evaluating oracle,
// kept as the representation-independent reference for the flat
// (CSR + bitset) data layer: the cross-representation property tests
// drive random instances through MapOracle and the specialized oracles
// side by side and require agreement to 1e-12, and BenchmarkMapOracleGain
// shows what the flat layout buys.
type MapOracle struct {
	fn  Function
	set map[int]bool
	cur float64
}

var _ RemovalOracle = (*MapOracle)(nil)

// NewMapOracle returns a map-backed oracle over fn representing the
// empty set.
func NewMapOracle(fn Function) *MapOracle {
	return &MapOracle{fn: fn, set: make(map[int]bool)}
}

func (o *MapOracle) members() []int {
	s := make([]int, 0, len(o.set))
	for v := range o.set {
		s = append(s, v)
	}
	sort.Ints(s)
	return s
}

// Value implements Oracle.
func (o *MapOracle) Value() float64 { return o.cur }

// Contains implements Oracle.
func (o *MapOracle) Contains(v int) bool { return o.set[v] }

// Gain implements Oracle.
func (o *MapOracle) Gain(v int) float64 {
	if o.set[v] {
		return 0
	}
	s := append(o.members(), v)
	return o.fn.Eval(s) - o.cur
}

// Add implements Oracle.
func (o *MapOracle) Add(v int) {
	if o.set[v] {
		return
	}
	o.set[v] = true
	o.cur = o.fn.Eval(o.members())
}

// Loss implements RemovalOracle.
func (o *MapOracle) Loss(v int) float64 {
	if !o.set[v] {
		return 0
	}
	s := o.members()
	out := s[:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return o.cur - o.fn.Eval(out)
}

// Remove implements RemovalOracle.
func (o *MapOracle) Remove(v int) {
	if !o.set[v] {
		return
	}
	delete(o.set, v)
	o.cur = o.fn.Eval(o.members())
}

// Clone implements Oracle.
func (o *MapOracle) Clone() Oracle {
	c := &MapOracle{fn: o.fn, set: make(map[int]bool, len(o.set)), cur: o.cur}
	for v := range o.set {
		c.set[v] = true
	}
	return c
}

// EvalScalar is the pre-kernel scalar evaluation loop, kept as the
// differential reference for Eval: the kernel tests require
// Eval(set) == EvalScalar(set) bit for bit on every input.
func (u *DetectionUtility) EvalScalar(set []int) float64 {
	seen := bitset.New(u.n)
	surv := make([]float64, len(u.weights))
	for i := range surv {
		surv[i] = 1
	}
	for _, v := range set {
		checkElem(v, u.n)
		if seen.Contains(v) {
			continue
		}
		seen.Add(v)
		ts, qs := u.sensorTargets.Row(v)
		for k, t := range ts {
			surv[t] *= qs[k]
		}
	}
	var total float64
	for i, s := range surv {
		total += u.weights[i] * (1 - s)
	}
	return total
}
