package grid

import (
	"math/rand"
	"testing"
)

// TestCandidatesIntoAllocations is the allocation-regression gate for
// the query hot path, mirroring internal/submodular/alloc_test.go:
// with a capacity-sufficient buffer, CandidatesInto must not allocate
// at all — incidence construction calls it once per target, and any
// per-query allocation would erode the O(n + m + edges) build right
// back into GC pressure.
func TestCandidatesIntoAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	items := make([]Item, 512)
	for i := range items {
		items[i] = Item{
			Pos:   Point{rng.Float64() * 200, rng.Float64() * 200},
			Reach: 4 + rng.Float64()*12,
		}
	}
	ix := Build(items)
	points := make([]Point, 64)
	for i := range points {
		points[i] = Point{rng.Float64()*240 - 20, rng.Float64()*240 - 20}
	}
	buf := make([]int32, 0, len(items))
	if a := testing.AllocsPerRun(200, func() {
		for _, p := range points {
			buf = ix.CandidatesInto(buf, p)
		}
	}); a != 0 {
		t.Errorf("CandidatesInto allocated %v times per run, want 0", a)
	}
}

// TestBuildAllocationsBounded pins Build at a small constant number of
// allocations (bucket CSR + one scratch array), independent of the
// cell count: the counting sort never allocates per item or per cell
// beyond the four O(n)-sized arrays.
func TestBuildAllocationsBounded(t *testing.T) {
	items := make([]Item, 1024)
	rng := rand.New(rand.NewSource(8))
	for i := range items {
		items[i] = Item{Pos: Point{rng.Float64() * 1000, rng.Float64() * 1000}, Reach: 10}
	}
	if a := testing.AllocsPerRun(50, func() { Build(items) }); a > 8 {
		t.Errorf("Build allocated %v times per run, want ≤ 8", a)
	}
}
