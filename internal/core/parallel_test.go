package core

import (
	"testing"

	"cool/internal/stats"
	"cool/internal/submodular"
)

var workerCounts = []int{1, 2, 3, 8, 64}

func assertSameSchedule(t *testing.T, label string, want, got *Schedule) {
	t.Helper()
	if want.Mode() != got.Mode() {
		t.Fatalf("%s: mode %v != %v", label, got.Mode(), want.Mode())
	}
	wa, ga := want.Assignment(), got.Assignment()
	if len(wa) != len(ga) {
		t.Fatalf("%s: %d sensors != %d", label, len(ga), len(wa))
	}
	for v := range wa {
		if wa[v] != ga[v] {
			t.Fatalf("%s: sensor %d assigned to slot %d, want %d", label, v, ga[v], wa[v])
		}
	}
}

// TestParallelGreedyMatchesSequential is the determinism test: for
// placement (ρ = 3, 7) and removal (ρ = 0.5) instances, the cached
// sequential greedy equals the seed's uncached reference scan, and the
// parallel engine returns exactly that schedule at every worker count.
func TestParallelGreedyMatchesSequential(t *testing.T) {
	rng := stats.NewRNG(101)
	for _, rho := range []float64{3, 7, 0.5} {
		in, _ := detectionInstance(t, rng, 24, 6, rho)
		want, err := Greedy(in)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ReferenceGreedy(in)
		if err != nil {
			t.Fatal(err)
		}
		assertSameSchedule(t, "cached vs reference", ref, want)
		for _, w := range workerCounts {
			got, err := ParallelLazyGreedy(in, w)
			if err != nil {
				t.Fatalf("rho=%v workers=%d: %v", rho, w, err)
			}
			assertSameSchedule(t, "parallel", want, got)
		}
	}
}

func TestParallelLazyGreedyMatchesLazy(t *testing.T) {
	rng := stats.NewRNG(202)
	for _, rho := range []float64{3, 7, 0.5} {
		in, _ := detectionInstance(t, rng, 20, 5, rho)
		want, err := LazyGreedy(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts {
			got, err := ParallelLazyGreedy(in, w)
			if err != nil {
				t.Fatalf("rho=%v workers=%d: %v", rho, w, err)
			}
			assertSameSchedule(t, "parallel lazy", want, got)
		}
	}
}

// evalInstance builds an instance over EvalOracle, which deliberately
// does not advertise concurrent read-safety.
func evalInstance(t *testing.T, sizes []float64, rho float64) Instance {
	t.Helper()
	fn, err := submodular.NewLogSumUtility(sizes)
	if err != nil {
		t.Fatal(err)
	}
	in := Instance{
		N:       len(sizes),
		Period:  period(t, rho),
		Factory: func() submodular.RemovalOracle { return submodular.NewEvalOracle(fn) },
	}
	if submodular.ReadsAreConcurrentSafe(in.Factory()) {
		t.Fatal("EvalOracle unexpectedly advertises read-safety; test no longer covers the replica path")
	}
	return in
}

// TestParallelGreedyCloneReplicaPath exercises the Clone-based fallback
// for oracles that do not advertise concurrent read-safety: each worker
// must run on its own replica and still reproduce the sequential
// schedule exactly.
func TestParallelGreedyCloneReplicaPath(t *testing.T) {
	for _, rho := range []float64{3, 0.5} {
		in := evalInstance(t, []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, rho)
		want, err := Greedy(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4} {
			got, err := ParallelLazyGreedy(in, w)
			if err != nil {
				t.Fatalf("rho=%v workers=%d: %v", rho, w, err)
			}
			assertSameSchedule(t, "replica path", want, got)
		}
	}
}

// TestParallelGreedySharedPath pins down both sharing strategies:
// detection oracles advertise read-safety, so every worker aliases the
// base set; EvalOracle does not, so every further worker holds its own
// replica mirroring the base state (here the removal-mode full set).
func TestParallelGreedySharedPath(t *testing.T) {
	rng := stats.NewRNG(7)
	in, _ := detectionInstance(t, rng, 8, 3, 3)
	if !submodular.ReadsAreConcurrentSafe(in.Factory()) {
		t.Fatal("detection oracle stopped advertising read-safety; shared path untested")
	}
	sets, err := workerOracles(in, ModePlacement, 3)
	if err != nil {
		t.Fatal(err)
	}
	for w := 1; w < 3; w++ {
		for tt := range sets[w] {
			if sets[w][tt] != sets[0][tt] {
				t.Errorf("worker %d slot %d holds a replica despite read-safety", w, tt)
			}
		}
	}

	ev := evalInstance(t, []float64{1, 2, 3, 4, 5, 6}, 0.5)
	sets, err = workerOracles(ev, ModeRemoval, 3)
	if err != nil {
		t.Fatal(err)
	}
	for w := 1; w < 3; w++ {
		for tt, o := range sets[w] {
			base := sets[0][tt]
			if o == base {
				t.Fatalf("worker %d slot %d aliases a non-read-safe oracle", w, tt)
			}
			if o.Value() != base.Value() {
				t.Errorf("worker %d slot %d: replica Value %v != base %v", w, tt, o.Value(), base.Value())
			}
			for v := 0; v < ev.N; v++ {
				if !o.Contains(v) {
					t.Errorf("worker %d slot %d: replica lacks sensor %d of the full set", w, tt, v)
				}
			}
		}
	}
}

func TestParallelGreedyValidatesInstance(t *testing.T) {
	if _, err := ParallelLazyGreedy(Instance{}, 4); err == nil {
		t.Error("invalid instance accepted by ParallelLazyGreedy")
	}
}

func TestParallelGreedyWorkerClamping(t *testing.T) {
	rng := stats.NewRNG(55)
	in, _ := detectionInstance(t, rng, 3, 2, 3)
	// More workers than sensors must still work and match.
	want, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParallelLazyGreedy(in, 16)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSchedule(t, "clamped workers", want, got)
}
