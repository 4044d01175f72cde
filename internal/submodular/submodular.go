// Package submodular defines the set-function abstractions of the
// paper's utility model (Section II-C) and efficient incremental
// oracles for them.
//
// A utility U over a ground set of sensors {0, …, n−1} must be
// normalized (U(∅)=0), non-decreasing, and submodular ("diminishing
// returns"). The greedy hill-climbing scheduler interrogates utilities
// through the Oracle interface, which supports O(coverage-degree)
// marginal-gain queries instead of re-evaluating U from scratch.
package submodular

import (
	"fmt"
	"math"

	"cool/internal/bitset"
)

// Function is a set function over the ground set {0, …, GroundSize()−1}.
// Eval must treat its argument as a set: order is irrelevant and
// duplicates, if present, must not change the value.
type Function interface {
	// GroundSize returns the number of elements in the ground set.
	GroundSize() int
	// Eval returns the value of the function on the given set.
	Eval(set []int) float64
}

// Oracle is an incremental evaluator of a submodular function for one
// growing set. A fresh oracle represents the empty set.
//
// Concurrency contract: an oracle belongs to one goroutine at a time.
// The read-only queries (Value, Gain, Loss, Contains) must not mutate
// the represented set, but may use internal scratch (EvalOracle
// does), so no call is safe to interleave with any other. The
// scheduling engines query and mutate every slot oracle from the one
// goroutine that plans.
type Oracle interface {
	// Value returns U(S) for the current set S.
	Value() float64
	// Gain returns U(S ∪ {v}) − U(S) without modifying S.
	Gain(v int) float64
	// Add inserts v into S, updating internal state. Adding an element
	// already in S must be a no-op.
	Add(v int)
	// Contains reports whether v is already in S.
	Contains(v int) bool
}

// RemovalOracle extends Oracle with deletion support, used by the
// ρ ≤ 1 passive-slot greedy (Section IV-B), which starts from the full
// set and removes elements.
type RemovalOracle interface {
	Oracle
	// Loss returns U(S) − U(S ∖ {v}) without modifying S.
	Loss(v int) float64
	// Remove deletes v from S. Removing an element not in S must be a
	// no-op.
	Remove(v int)
}

// BulkGainer is implemented by oracles that can evaluate the marginal
// gain of every ground-set element in one pass. BulkGain must write
// Gain(v) into out[v] for every v (0 for current members), with out
// bit-identical to GroundSize individual Gain calls — the scheduling
// engines rely on that equality to stay deterministic across the bulk
// and per-element paths. len(out) must equal the ground size. BulkGain
// must not mutate oracle state and must not allocate.
//
// The point of the bulk form is memory order: the CSR-backed oracles
// sweep the target→sensors incidence target-major (contiguous reads,
// accumulating into the small out array) instead of n independent
// sensor-major row walks, which is substantially faster when the
// scheduler refreshes a whole slot column at once.
type BulkGainer interface {
	BulkGain(out []float64)
}

// BulkLosser is the removal-side dual of BulkGainer: BulkLoss writes
// Loss(v) into out[v] for every member v and 0 for non-members,
// bit-identical to individual Loss calls.
type BulkLosser interface {
	BulkLoss(out []float64)
}

// AffectedLister is implemented by incidence-backed oracles that can
// enumerate the damage front of a mutation: AppendAffected appends to
// buf the ID of every element whose marginal a mutation of v could
// change — for the CSR oracles, every element sharing at least one
// target/item with v (v itself included when it has any incidence).
// The result may contain duplicates; callers deduplicate.
//
// Contract: after any mutations (Add/Remove) of the elements of a set
// C, Gain(u) and Loss(u) are bit-identical to their values before the
// mutations for every u outside C and outside the lists of C's
// elements — their marginals sum over per-target state no mutation
// touched. The greedy climb relies on it to refresh a cached marginal
// column by recomputing only the listed elements instead of the whole
// ground set, and the incremental replanning engine to localize a
// perturbation's damage front. AppendAffected must not allocate beyond
// growing buf. Oracles with dense coupling (every element affects every
// other) should not implement the interface; callers must then treat
// the whole ground set as affected.
type AffectedLister interface {
	AppendAffected(buf []int32, v int) []int32
}

// EvalOracle builds an oracle for an arbitrary Function by re-evaluating
// it on every query. It is the correctness yardstick the specialized
// oracles are tested against, and the fallback for user-supplied
// functions without an incremental form.
//
// Membership is a bitset and the member list handed to Eval is a
// reusable scratch buffer — a Gain query allocates nothing beyond what
// the wrapped Function's Eval itself allocates. The tests keep the
// original map[int]bool representation, MapOracle, as a cross-checking
// reference.

type EvalOracle struct {
	fn      Function
	set     bitset.Bitset
	scratch []int
	cur     float64
}

var _ RemovalOracle = (*EvalOracle)(nil)

// NewEvalOracle returns an oracle over fn representing the empty set.
func NewEvalOracle(fn Function) *EvalOracle {
	n := fn.GroundSize()
	return &EvalOracle{fn: fn, set: bitset.New(n), scratch: make([]int, 0, n+1)}
}

// members fills the scratch buffer with the current set in ascending
// order (a bitset sweep; no sort needed) and returns it.
func (o *EvalOracle) members() []int {
	o.scratch = o.set.AppendMembers(o.scratch[:0])
	return o.scratch
}

// Value implements Oracle.
func (o *EvalOracle) Value() float64 { return o.cur }

// Contains implements Oracle.
func (o *EvalOracle) Contains(v int) bool {
	checkElem(v, o.set.Len())
	return o.set.Contains(v)
}

// Gain implements Oracle.
func (o *EvalOracle) Gain(v int) float64 {
	checkElem(v, o.set.Len())
	if o.set.Contains(v) {
		return 0
	}
	s := append(o.members(), v)
	return o.fn.Eval(s) - o.cur
}

// Add implements Oracle.
func (o *EvalOracle) Add(v int) {
	checkElem(v, o.set.Len())
	if o.set.Contains(v) {
		return
	}
	o.set.Add(v)
	o.cur = o.fn.Eval(o.members())
}

// Loss implements RemovalOracle.
func (o *EvalOracle) Loss(v int) float64 {
	checkElem(v, o.set.Len())
	if !o.set.Contains(v) {
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
func (o *EvalOracle) Remove(v int) {
	checkElem(v, o.set.Len())
	if !o.set.Contains(v) {
		return
	}
	o.set.Remove(v)
	o.cur = o.fn.Eval(o.members())
}

// checkElem panics with a descriptive message when v is outside the
// ground set; index bugs in callers should fail loudly rather than
// corrupt utility accounting.
func checkElem(v, n int) {
	if v < 0 || v >= n {
		panic(fmt.Sprintf("submodular: element %d outside ground set [0,%d)", v, n))
	}
}

// IsMonotone exhaustively verifies that fn is non-decreasing on every
// pair (S, S∪{v}) of subsets of a ground set of at most maxGround
// elements. It returns an error describing the first violation found.
// Intended for tests and validation of user-supplied functions.
func IsMonotone(fn Function, tol float64) error {
	n := fn.GroundSize()
	if n > 16 {
		return fmt.Errorf("submodular: ground set %d too large for exhaustive check", n)
	}
	for mask := 0; mask < 1<<n; mask++ {
		base := maskSet(mask, n)
		fBase := fn.Eval(base)
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				continue
			}
			if fn.Eval(append(base, v))-fBase < -tol {
				return fmt.Errorf(
					"submodular: monotonicity violated at S=%v v=%d", base, v)
			}
		}
	}
	return nil
}

// IsSubmodular exhaustively verifies the diminishing-returns property
// U(S∪{v})−U(S) ≥ U(Y∪{v})−U(Y) for all S ⊆ Y and v ∉ Y over a small
// ground set. It returns an error describing the first violation.
func IsSubmodular(fn Function, tol float64) error {
	n := fn.GroundSize()
	if n > 12 {
		return fmt.Errorf("submodular: ground set %d too large for exhaustive check", n)
	}
	vals := make([]float64, 1<<n)
	for mask := range vals {
		vals[mask] = fn.Eval(maskSet(mask, n))
	}
	for small := 0; small < 1<<n; small++ {
		for big := small; big < 1<<n; big++ {
			if big&small != small { // small not a subset of big
				continue
			}
			for v := 0; v < n; v++ {
				bit := 1 << v
				if big&bit != 0 {
					continue
				}
				gainSmall := vals[small|bit] - vals[small]
				gainBig := vals[big|bit] - vals[big]
				if gainSmall < gainBig-tol {
					return fmt.Errorf(
						"submodular: diminishing returns violated at S=%v Y=%v v=%d (%v < %v)",
						maskSet(small, n), maskSet(big, n), v, gainSmall, gainBig)
				}
			}
		}
	}
	return nil
}

// IsNormalized verifies U(∅)=0 within tolerance.
func IsNormalized(fn Function, tol float64) error {
	if v := fn.Eval(nil); math.Abs(v) > tol {
		return fmt.Errorf("submodular: U(∅) = %v, want 0", v)
	}
	return nil
}

func maskSet(mask, n int) []int {
	s := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if mask&(1<<v) != 0 {
			s = append(s, v)
		}
	}
	return s
}
