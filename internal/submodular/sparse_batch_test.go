package submodular

import (
	"math"
	"math/rand"
	"testing"
)

// The batch sparse-refresh contract: after any sequence of mutations
// confined to a changed-set, one SparseGainRefreshAll/SparseLossRefreshAll
// sweep must restore a previously-exact marginal column to bit-identity
// with a fresh BulkGain/BulkLoss of the current state. These tests walk
// randomized mutation batches on both CSR oracles and hold the columns
// to Float64bits equality, the same discipline as the one-element walk
// of sparse_test.go.

func batchTestOracles(tb testing.TB, n, m int, seed int64) []RemovalOracle {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	targets := make([]DetectionTarget, m)
	items := make([]CoverageItem, m)
	for i := 0; i < m; i++ {
		probs := make(map[int]float64)
		var covered []int
		deg := 1 + rng.Intn(6)
		for k := 0; k < deg; k++ {
			v := rng.Intn(n)
			if _, dup := probs[v]; dup {
				continue
			}
			probs[v] = rng.Float64()
			covered = append(covered, v)
		}
		targets[i] = DetectionTarget{Weight: 0.5 + rng.Float64(), Probs: probs}
		items[i] = CoverageItem{Value: 0.5 + rng.Float64(), CoveredBy: covered}
	}
	du, err := NewDetectionUtility(n, targets)
	if err != nil {
		tb.Fatal(err)
	}
	cu, err := NewCoverageUtility(n, items)
	if err != nil {
		tb.Fatal(err)
	}
	return []RemovalOracle{du.Oracle(), cu.Oracle()}
}

func TestSparseBatchRefreshMatchesBulk(t *testing.T) {
	const n, m = 120, 60
	for trial := int64(0); trial < 40; trial++ {
		rng := rand.New(rand.NewSource(1000 + trial))
		for _, o := range batchTestOracles(t, n, m, trial) {
			bg := o.(BulkGainer)
			bl := o.(BulkLosser)
			sg := o.(SparseGainBatchRefresher)
			sl := o.(SparseLossBatchRefresher)
			// Seed a random member set.
			for v := 0; v < n; v++ {
				if rng.Intn(3) == 0 {
					o.Add(v)
				}
			}
			gains := make([]float64, n)
			losses := make([]float64, n)
			bg.BulkGain(gains)
			bl.BulkLoss(losses)
			// Apply a batch of mutations confined to a changed-set.
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
				if o.Contains(v) {
					o.Remove(v)
				} else {
					o.Add(v)
				}
				if rng.Intn(4) == 0 { // mutate some elements twice
					if o.Contains(v) {
						o.Remove(v)
					} else {
						o.Add(v)
					}
				}
			}
			sg.SparseGainRefreshAll(changed, gains)
			sl.SparseLossRefreshAll(changed, losses)
			wantG := make([]float64, n)
			wantL := make([]float64, n)
			bg.BulkGain(wantG)
			bl.BulkLoss(wantL)
			for v := 0; v < n; v++ {
				if math.Float64bits(gains[v]) != math.Float64bits(wantG[v]) {
					t.Fatalf("trial %d: gain[%d] = %v after batch refresh, bulk says %v (changed %v)",
						trial, v, gains[v], wantG[v], changed)
				}
				if math.Float64bits(losses[v]) != math.Float64bits(wantL[v]) {
					t.Fatalf("trial %d: loss[%d] = %v after batch refresh, bulk says %v (changed %v)",
						trial, v, losses[v], wantL[v], changed)
				}
			}
		}
	}
}

// TestAppendAffectedCoversSharedIncidence verifies the damage-front
// enumeration: for every sensor u sharing a target/item with v, u must
// appear in AppendAffected(v) — the property the incremental replanner's
// dirty-set localization rests on.
func TestAppendAffectedCoversSharedIncidence(t *testing.T) {
	const n, m = 60, 30
	for _, o := range batchTestOracles(t, n, m, 7) {
		al := o.(AffectedLister)
		// Brute-force shared-incidence relation via Gain perturbation is
		// indirect; instead recompute from the incidence the oracles
		// expose through AppendAffected itself being symmetric: u affects
		// v iff v affects u. Check symmetry plus self-inclusion for
		// covering sensors.
		affected := make([][]int32, n)
		for v := 0; v < n; v++ {
			affected[v] = al.AppendAffected(nil, v)
		}
		inList := func(list []int32, u int) bool {
			for _, x := range list {
				if int(x) == u {
					return true
				}
			}
			return false
		}
		for v := 0; v < n; v++ {
			if len(affected[v]) > 0 && !inList(affected[v], v) {
				t.Fatalf("sensor %d covers incidence but is not in its own affected list", v)
			}
			for _, u := range affected[v] {
				if !inList(affected[int(u)], v) {
					t.Fatalf("affected relation asymmetric: %d lists %d but not vice versa", v, u)
				}
			}
		}
	}
}
