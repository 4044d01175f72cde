package submodular

import (
	"math"
	"testing"
	"testing/quick"

	"cool/internal/stats"
)

// This file locks down the column-sparse refresh contract
// (SparseGainBatchRefresher / SparseLossBatchRefresher) in the form the
// greedy climb uses it every step: starting from a pre-mutation bulk
// snapshot, a refresh with the one-element changed list after any
// single Add/Remove must leave the buffer bit-identical to a
// from-scratch BulkGain/BulkLoss sweep — on every entry, member or
// not. The greedy engines' determinism rests on exactly this equality.

// sparseDetectionUtility derives a detection utility from an RNG: n in
// [4, 36], m in [1, 8], random incidence (possibly leaving some sensors
// covering nothing — the zero-marginal edge case).
func sparseDetectionUtility(t testing.TB, rng *stats.RNG) *DetectionUtility {
	t.Helper()
	n := 4 + rng.Intn(33)
	m := 1 + rng.Intn(8)
	targets := make([]DetectionTarget, m)
	for i := range targets {
		probs := make(map[int]float64)
		cover := rng.UniformRange(0.1, 0.9)
		for v := 0; v < n; v++ {
			if rng.Bernoulli(cover) {
				probs[v] = rng.UniformRange(0, 1) // includes the p∈{0,1} ends
			}
		}
		if len(probs) == 0 {
			probs[rng.Intn(n)] = 0.5
		}
		targets[i] = DetectionTarget{Weight: rng.UniformRange(0.1, 3), Probs: probs}
	}
	u, err := NewDetectionUtility(n, targets)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// sparseCoverageUtility is the coverage-model counterpart.
func sparseCoverageUtility(t testing.TB, rng *stats.RNG) *CoverageUtility {
	t.Helper()
	n := 4 + rng.Intn(33)
	m := 1 + rng.Intn(10)
	items := make([]CoverageItem, m)
	for i := range items {
		var covered []int
		cover := rng.UniformRange(0.1, 0.9)
		for v := 0; v < n; v++ {
			if rng.Bernoulli(cover) {
				covered = append(covered, v)
			}
		}
		if len(covered) == 0 {
			covered = []int{rng.Intn(n)}
		}
		items[i] = CoverageItem{Value: rng.UniformRange(0.1, 3), CoveredBy: covered}
	}
	u, err := NewCoverageUtility(n, items)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// sparseOracle is the intersection of capabilities the property needs.
type sparseOracle interface {
	RemovalOracle
	BulkGainer
	BulkLosser
	SparseGainBatchRefresher
	SparseLossBatchRefresher
}

// checkSparseAgainstBulk drives o through a random Add/Remove walk. At
// every step it keeps gainBuf/lossBuf maintained purely by sparse
// refreshes and compares them, entry for entry and bit for bit, against
// fresh bulk sweeps. n is the ground-set size, steps the walk length.
func checkSparseAgainstBulk(t testing.TB, o sparseOracle, n int, rng *stats.RNG, steps int) bool {
	t.Helper()
	gainBuf := make([]float64, n)
	lossBuf := make([]float64, n)
	fresh := make([]float64, n)
	o.BulkGain(gainBuf)
	o.BulkLoss(lossBuf)
	member := make([]bool, n)
	one := make([]int, 1)
	var rows []int32
	for step := 0; step < steps; step++ {
		v := rng.Intn(n)
		if member[v] {
			o.Remove(v)
		} else {
			o.Add(v)
		}
		member[v] = !member[v]
		one[0] = v
		rows = o.SparseGainRefreshAll(one, gainBuf, rows[:0])
		rows = o.SparseLossRefreshAll(one, lossBuf, rows[:0])

		o.BulkGain(fresh)
		for i := range fresh {
			if math.Float64bits(gainBuf[i]) != math.Float64bits(fresh[i]) {
				t.Logf("step %d (sensor %d): sparse gain[%d]=%v (bits %#x) != bulk %v (bits %#x)",
					step, v, i, gainBuf[i], math.Float64bits(gainBuf[i]),
					fresh[i], math.Float64bits(fresh[i]))
				return false
			}
		}
		o.BulkLoss(fresh)
		for i := range fresh {
			if math.Float64bits(lossBuf[i]) != math.Float64bits(fresh[i]) {
				t.Logf("step %d (sensor %d): sparse loss[%d]=%v != bulk %v",
					step, v, i, lossBuf[i], fresh[i])
				return false
			}
		}
	}
	return true
}

func TestSparseRefreshMatchesBulkDetectionQuick(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		u := sparseDetectionUtility(t, rng)
		o := sparseOracle(u.Oracle())
		return checkSparseAgainstBulk(t, o, u.GroundSize(), rng, 3*u.GroundSize())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseRefreshMatchesBulkCoverageQuick(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		u := sparseCoverageUtility(t, rng)
		o := sparseOracle(u.Oracle())
		return checkSparseAgainstBulk(t, o, u.GroundSize(), rng, 3*u.GroundSize())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
