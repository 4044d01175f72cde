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
// Concurrency contract: the read-only queries (Value, Gain, Loss,
// Contains) must not mutate oracle state. Implementations additionally
// advertise via ConcurrentReadSafe whether those queries may run from
// multiple goroutines at once; every oracle in this package except
// EvalOracle does. The mutators (Add, Remove) are never safe to
// interleave with any other call. The parallel scheduling engine only
// reads during its sharded initial fill and mutates on one goroutine
// after it; for implementations that do not advertise read-safety it
// gives every further worker a Clone()-derived replica.
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
	// Clone returns an independent copy of the oracle with the same
	// current set.
	Clone() Oracle
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

// ConcurrentReadSafe is implemented by oracles whose read-only queries
// (Value, Gain, Loss, Contains) are safe to call concurrently from
// multiple goroutines, provided no Add or Remove runs at the same time.
// The parallel scheduling engine shares one oracle per slot across all
// workers when the factory's oracles advertise read-safety, and
// otherwise gives each worker its own Clone()-derived replica set.
type ConcurrentReadSafe interface {
	// ConcurrentReadSafe reports whether concurrent read-only queries
	// are safe on this oracle.
	ConcurrentReadSafe() bool
}

// ReadsAreConcurrentSafe reports whether o advertises the concurrent
// read-safety contract.
func ReadsAreConcurrentSafe(o Oracle) bool {
	c, ok := o.(ConcurrentReadSafe)
	return ok && c.ConcurrentReadSafe()
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

// SparseGainBatchRefresher is implemented by oracles that can repair a
// per-sensor gain column incrementally after mutations, touching only
// the entries the mutations could have changed.
//
// Contract: let out hold, for every ground-set element u, a value
// bit-identical to Gain(u) under some earlier oracle state (for
// example a BulkGain snapshot of it), and let every mutation
// (Add/Remove) applied since that state involve only elements of
// changed (each element any number of times).
// SparseGainRefreshAll(changed, out) must rewrite out in place so that
// out[u] is bit-identical to Gain(u) under the *current* state for
// every u — while it may read or write only entries whose gain the
// mutations could have affected (for the incidence-backed oracles:
// elements sharing at least one target/item with a changed element,
// plus the changed elements themselves). Elements outside that set are
// exact by definition — their marginals sum over per-target state the
// mutations did not touch — which is what makes the sparse sweep an
// exactness-preserving replacement for a full column refresh, not an
// approximation. The union of the changed elements' incidence rows is
// swept exactly once (epoch-deduplicated), so a k-element perturbation
// costs O(Σ affected) instead of k separate sweeps.
//
// SparseGainRefreshAll may use internal scratch (it is NOT a concurrent
// read in the ConcurrentReadSafe sense) and must not allocate. The
// greedy climb calls it with a one-element changed list after every
// step, refreshing the dirty slot column in O(affected) instead of
// O(n + edges); the incremental replanner calls it with a whole
// perturbation batch.
type SparseGainBatchRefresher interface {
	SparseGainRefreshAll(changed []int, out []float64)
}

// SparseLossBatchRefresher is the removal-side dual of
// SparseGainBatchRefresher: the same contract with Loss/BulkLoss in
// place of Gain/BulkGain (member entries carry losses, non-members 0).
type SparseLossBatchRefresher interface {
	SparseLossRefreshAll(changed []int, out []float64)
}

// AffectedLister is implemented by incidence-backed oracles that can
// enumerate the damage front of a mutation: AppendAffected appends to
// buf the ID of every element whose marginal a mutation of v could
// change — for the CSR oracles, every element sharing at least one
// target/item with v (v itself included when it has any incidence).
// The result may contain duplicates; callers deduplicate. The
// incremental replanning engine uses it to localize a perturbation's
// dirty set instead of resweeping the fleet. Oracles with dense
// coupling (every element affects every other) should not implement
// the interface; callers must then treat the whole ground set as
// affected.
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
//
// EvalOracle deliberately does not implement ConcurrentReadSafe: it
// cannot vouch for the wrapped Function's Eval being safe under
// concurrent calls, and its scratch buffer makes even its own queries
// mutually exclusive; the parallel engine falls back to Clone-based
// per-worker replicas for it.
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

// Clone implements Oracle.
func (o *EvalOracle) Clone() Oracle {
	return &EvalOracle{
		fn:      o.fn,
		set:     o.set.Clone(),
		scratch: make([]int, 0, o.set.Len()+1),
		cur:     o.cur,
	}
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
