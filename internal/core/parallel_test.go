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

// TestParallelGreedyMatchesSequential is the tentpole determinism test:
// for placement (ρ = 3, 7) and removal (ρ = 0.5) instances, every
// worker count returns exactly the schedule of the cached sequential
// greedy, which in turn equals the seed's uncached reference scan.
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
			got, err := ParallelGreedy(in, w)
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

// TestParallelGreedyCloneReplicaPath exercises the Clone-based fallback
// for oracles that do not advertise concurrent read-safety: EvalOracle
// deliberately does not, so each worker must run on its own replica and
// still reproduce the sequential schedule exactly.
func TestParallelGreedyCloneReplicaPath(t *testing.T) {
	sizes := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	fn, err := submodular.NewLogSumUtility(sizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, rho := range []float64{3, 0.5} {
		in := Instance{
			N:       len(sizes),
			Period:  period(t, rho),
			Factory: func() submodular.RemovalOracle { return submodular.NewEvalOracle(fn) },
		}
		if submodular.ReadsAreConcurrentSafe(in.Factory()) {
			t.Fatal("EvalOracle unexpectedly advertises read-safety; test no longer covers the replica path")
		}
		want, err := Greedy(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4} {
			got, err := ParallelGreedy(in, w)
			if err != nil {
				t.Fatalf("rho=%v workers=%d: %v", rho, w, err)
			}
			assertSameSchedule(t, "replica path", want, got)
			lazyGot, err := ParallelLazyGreedy(in, w)
			if err != nil {
				t.Fatal(err)
			}
			if lazyGot.PeriodUtility(in.Factory) != want.PeriodUtility(in.Factory) {
				t.Errorf("rho=%v workers=%d: lazy parallel utility %v != %v",
					rho, w, lazyGot.PeriodUtility(in.Factory), want.PeriodUtility(in.Factory))
			}
		}
	}
}

// TestParallelGreedySharedPath pins down that the detection oracles do
// take the shared-oracle fast path (they advertise read-safety), so the
// suite covers both sharing strategies.
func TestParallelGreedySharedPath(t *testing.T) {
	rng := stats.NewRNG(7)
	in, _ := detectionInstance(t, rng, 8, 3, 3)
	if !submodular.ReadsAreConcurrentSafe(in.Factory()) {
		t.Fatal("detection oracle stopped advertising read-safety; shared path untested")
	}
	shards, err := buildShards(in, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if !shards.shared {
		t.Error("buildShards did not share read-safe oracles")
	}
	for w := 1; w < 3; w++ {
		for tt := range shards.sets[w] {
			if shards.sets[w][tt] != shards.sets[0][tt] {
				t.Errorf("worker %d slot %d holds a replica despite read-safety", w, tt)
			}
		}
	}
}

func TestParallelGreedyValidatesInstance(t *testing.T) {
	if _, err := ParallelGreedy(Instance{}, 4); err == nil {
		t.Error("invalid instance accepted by ParallelGreedy")
	}
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
	got, err := ParallelGreedy(in, 16)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSchedule(t, "clamped workers", want, got)
}
