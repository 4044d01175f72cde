package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cool/internal/stats"
	"cool/internal/submodular"
)

// The climb's walk is the column-sparse refresh of every oracle with an
// affected list: after mutations confined to the sensors of changed,
// recomputing only the walk's rows must leave a cached marginal column
// bit-identical to a fresh BulkGain/BulkLoss on every entry, member or
// not, and the walk must report each such row once. These tests hold
// the detection and coverage oracles to that with Float64bits equality,
// for the one-sensor refresh a greedy step runs and for the batches of
// the Repairer. The engines' determinism rests on exactly this
// equality.

// walkOracle is what the walk tests need of an oracle.
type walkOracle interface {
	submodular.RemovalOracle
	submodular.BulkGainer
	submodular.BulkLosser
	submodular.AffectedLister
}

// columnClimb returns a one-slot climb over o in the given regime with
// its column filled: the gain column (placement) or loss column
// (removal) a greedy caches for o. Outside a run there are no trees.
func columnClimb(o submodular.RemovalOracle, n int, removal bool) *climb {
	c := &climb{
		oracles: []submodular.RemovalOracle{o},
		cache:   newMarginCache(n, 1),
		removal: removal,
		mark:    make([]uint32, n),
	}
	c.fill(0)
	return c
}

// columnMismatch returns the first entry of c's column that differs in
// its bits from a fresh bulk sweep of o, or -1.
func columnMismatch(c *climb, o walkOracle) int {
	col := c.cache.column(0)
	fresh := make([]float64, len(col))
	if c.removal {
		o.BulkLoss(fresh)
	} else {
		o.BulkGain(fresh)
	}
	for v := range col {
		if math.Float64bits(col[v]) != math.Float64bits(fresh[v]) {
			return v
		}
	}
	return -1
}

// walkDetectionUtility derives a detection utility from an RNG: n in
// [4, 36], m in [1, 8], random incidence (possibly leaving some sensors
// covering nothing — the zero-marginal edge case).
func walkDetectionUtility(t testing.TB, rng *stats.RNG) *submodular.DetectionUtility {
	t.Helper()
	n := 4 + rng.Intn(33)
	targets := make([]submodular.DetectionTarget, 1+rng.Intn(8))
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
		targets[i] = submodular.DetectionTarget{Weight: rng.UniformRange(0.1, 3), Probs: probs}
	}
	u, err := submodular.NewDetectionUtility(n, targets)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// walkCoverageUtility is the coverage-model counterpart.
func walkCoverageUtility(t testing.TB, rng *stats.RNG) *submodular.CoverageUtility {
	t.Helper()
	n := 4 + rng.Intn(33)
	items := make([]submodular.CoverageItem, 1+rng.Intn(10))
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
		items[i] = submodular.CoverageItem{Value: rng.UniformRange(0.1, 3), CoveredBy: covered}
	}
	u, err := submodular.NewCoverageUtility(n, items)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// checkOneSensorWalk toggles random sensors of o, refreshing a gain and
// a loss column with the one-sensor list after each toggle, and holds
// both columns to fresh bulk sweeps.
func checkOneSensorWalk(t testing.TB, o walkOracle, n int, rng *stats.RNG, steps int) bool {
	t.Helper()
	cols := []*climb{columnClimb(o, n, false), columnClimb(o, n, true)}
	for step := 0; step < steps; step++ {
		v := rng.Intn(n)
		if o.Contains(v) {
			o.Remove(v)
		} else {
			o.Add(v)
		}
		for _, c := range cols {
			c.one[0] = v
			c.refresh(0, c.one[:])
			if u := columnMismatch(c, o); u >= 0 {
				t.Logf("step %d (sensor %d) removal=%v: entry %d = %v, bulk disagrees",
					step, v, c.removal, u, c.cache.at(u, 0))
				return false
			}
		}
	}
	return true
}

func TestSparseRefreshMatchesBulkDetectionQuick(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		u := walkDetectionUtility(t, rng)
		return checkOneSensorWalk(t, u.Oracle(), u.GroundSize(), rng, 3*u.GroundSize())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseRefreshMatchesBulkCoverageQuick(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		u := walkCoverageUtility(t, rng)
		return checkOneSensorWalk(t, u.Oracle(), u.GroundSize(), rng, 3*u.GroundSize())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// batchWalkOracles builds a detection and a coverage oracle over one
// random sparse incidence: each of the m targets is covered by one to
// six random sensors, so some sensors cover nothing.
func batchWalkOracles(tb testing.TB, n, m int, seed int64) []walkOracle {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	targets := make([]submodular.DetectionTarget, m)
	items := make([]submodular.CoverageItem, m)
	for i := 0; i < m; i++ {
		probs := make(map[int]float64)
		var covered []int
		for k, deg := 0, 1+rng.Intn(6); k < deg; k++ {
			v := rng.Intn(n)
			if _, dup := probs[v]; dup {
				continue
			}
			probs[v] = rng.Float64()
			covered = append(covered, v)
		}
		targets[i] = submodular.DetectionTarget{Weight: 0.5 + rng.Float64(), Probs: probs}
		items[i] = submodular.CoverageItem{Value: 0.5 + rng.Float64(), CoveredBy: covered}
	}
	du, err := submodular.NewDetectionUtility(n, targets)
	if err != nil {
		tb.Fatal(err)
	}
	cu, err := submodular.NewCoverageUtility(n, items)
	if err != nil {
		tb.Fatal(err)
	}
	return []walkOracle{du.Oracle(), cu.Oracle()}
}

// seedMembers adds a random third of the ground set to o.
func seedMembers(rng *rand.Rand, o submodular.RemovalOracle, n int) {
	for v := 0; v < n; v++ {
		if rng.Intn(3) == 0 {
			o.Add(v)
		}
	}
}

// mutateBatch applies a random batch of mutations confined to a
// changed-set of 1–8 distinct elements, toggling some of them twice,
// and returns the changed-set.
func mutateBatch(rng *rand.Rand, o submodular.RemovalOracle, n int) []int {
	toggle := func(v int) {
		if o.Contains(v) {
			o.Remove(v)
		} else {
			o.Add(v)
		}
	}
	k := 1 + rng.Intn(8)
	changed := make([]int, 0, k)
	seen := map[int]bool{}
	for len(changed) < k {
		v := rng.Intn(n)
		if seen[v] {
			continue
		}
		seen[v] = true
		changed = append(changed, v)
		toggle(v)
		if rng.Intn(4) == 0 { // mutate some elements twice
			toggle(v)
		}
	}
	return changed
}

func TestSparseBatchRefreshMatchesBulk(t *testing.T) {
	const n, m = 120, 60
	for trial := int64(0); trial < 40; trial++ {
		rng := rand.New(rand.NewSource(1000 + trial))
		for _, o := range batchWalkOracles(t, n, m, trial) {
			seedMembers(rng, o, n)
			cols := []*climb{columnClimb(o, n, false), columnClimb(o, n, true)}
			changed := mutateBatch(rng, o, n)
			for _, c := range cols {
				c.refresh(0, changed)
				if u := columnMismatch(c, o); u >= 0 {
					t.Fatalf("trial %d removal=%v: entry %d = %v after the batch refresh, bulk disagrees (changed %v)",
						trial, c.removal, u, c.cache.at(u, 0), changed)
				}
			}
		}
	}
}

// TestSparseBatchRowReport pins the row report the winner trees and
// the Repairer's damage front rely on: after a random batch, the walk
// reports no row twice and every changed element, and every entry it
// does not report is bit-identical both to its value before the batch
// and to a fresh bulk sweep — so recomputing only the reported rows
// refreshes the whole column.
func TestSparseBatchRowReport(t *testing.T) {
	const n, m = 120, 60
	for trial := int64(0); trial < 40; trial++ {
		rng := rand.New(rand.NewSource(2000 + trial))
		for _, o := range batchWalkOracles(t, n, m, trial) {
			seedMembers(rng, o, n)
			for _, removal := range []bool{false, true} {
				c := columnClimb(o, n, removal)
				before := append([]float64(nil), c.cache.column(0)...)
				changed := mutateBatch(rng, o, n)
				reported := make([]bool, n)
				for _, v := range c.walk(o, changed) {
					if reported[v] {
						t.Fatalf("trial %d removal=%v: row %d reported twice", trial, removal, v)
					}
					reported[v] = true
				}
				for _, v := range changed {
					if !reported[v] {
						t.Fatalf("trial %d removal=%v: changed element %d not reported", trial, removal, v)
					}
				}
				// A column filled fresh now differs from before only at
				// reported rows.
				c.fill(0)
				for v, now := range c.cache.column(0) {
					if !reported[v] && math.Float64bits(now) != math.Float64bits(before[v]) {
						t.Fatalf("trial %d removal=%v: unreported entry %d moved %v -> %v", trial, removal, v, before[v], now)
					}
				}
			}
		}
	}
}

// TestWalkEpochWraparound starts the walk's epoch at its maximum: the
// next walk wraps it, must clear every stale mark — here, marks equal
// to the epoch the wrap lands on — and still report the full row set.
func TestWalkEpochWraparound(t *testing.T) {
	const n = 120
	o := batchWalkOracles(t, n, 60, 5)[1]
	changed := []int{3, 17, 64}
	want := map[int32]bool{}
	for _, v := range columnClimb(o, n, false).walk(o, changed) {
		want[v] = true
	}
	c := columnClimb(o, n, false)
	c.epoch = math.MaxUint32
	for v := range c.mark {
		c.mark[v] = 1
	}
	rows := c.walk(o, changed)
	if c.epoch != 1 {
		t.Fatalf("epoch after the wrap = %d, want 1", c.epoch)
	}
	if len(rows) != len(want) {
		t.Fatalf("wrapped walk reported %d rows, want %d", len(rows), len(want))
	}
	for _, v := range rows {
		if !want[v] {
			t.Fatalf("wrapped walk reported row %d outside the affected set", v)
		}
	}
	for v, m := range c.mark {
		if want[int32(v)] != (m == 1) {
			t.Fatalf("mark[%d] = %d after the wrap (reported %v)", v, m, want[int32(v)])
		}
	}
}
