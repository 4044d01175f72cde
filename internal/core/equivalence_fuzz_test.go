package core

import (
	"testing"

	"cool/internal/energy"
	"cool/internal/stats"
	"cool/internal/submodular"
)

// FuzzEngineEquivalence is the fuzz-shaped form of the determinism
// contract: for any seeded instance — either utility model, either ρ
// regime, any incidence density the fuzzer reaches — every engine must
// return the same assignment vector and the same (bit-identical)
// period utility as the cached sequential Greedy. The committed seed
// corpus under testdata/fuzz/FuzzEngineEquivalence pins the structural
// corners (both modes, zero-coverage sensors, single target, n < T);
// `make fuzz` and the CI race job extend the search from there.
func FuzzEngineEquivalence(f *testing.F) {
	// (seed, nRaw, mRaw, rhoRaw, coverRaw) — decoded below.
	f.Add(uint64(1), uint8(10), uint8(3), uint8(5), uint8(120))
	f.Add(uint64(2), uint8(20), uint8(1), uint8(4), uint8(200)) // single target
	f.Add(uint64(3), uint8(6), uint8(2), uint8(0), uint8(90))   // deep removal
	f.Add(uint64(4), uint8(3), uint8(4), uint8(8), uint8(60))   // n < T
	f.Add(uint64(5), uint8(29), uint8(5), uint8(6), uint8(10))  // near-empty incidence
	f.Add(uint64(6), uint8(15), uint8(4), uint8(3), uint8(250)) // dense, removal
	f.Add(uint64(7), uint8(24), uint8(2), uint8(7), uint8(160))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, mRaw, rhoRaw, coverRaw uint8) {
		n := 2 + int(nRaw)%30
		m := 1 + int(mRaw)%6
		rhos := []float64{0.2, 0.25, 1.0 / 3.0, 0.5, 1, 2, 3, 5, 7, 11}
		rho := rhos[int(rhoRaw)%len(rhos)]
		cover := 0.02 + float64(int(coverRaw)%240)/250.0

		rng := stats.NewRNG(seed)
		var factory OracleFactory
		if seed%2 == 0 {
			targets := make([]submodular.DetectionTarget, m)
			for i := range targets {
				probs := make(map[int]float64)
				for v := 0; v < n; v++ {
					if rng.Bernoulli(cover) {
						probs[v] = rng.UniformRange(0, 1)
					}
				}
				if len(probs) == 0 {
					probs[rng.Intn(n)] = 0.5
				}
				targets[i] = submodular.DetectionTarget{Weight: rng.UniformRange(0.1, 2), Probs: probs}
			}
			u, err := submodular.NewDetectionUtility(n, targets)
			if err != nil {
				t.Fatal(err)
			}
			factory = func() submodular.RemovalOracle { return u.Oracle() }
		} else {
			items := make([]submodular.CoverageItem, m)
			for i := range items {
				var covered []int
				for v := 0; v < n; v++ {
					if rng.Bernoulli(cover) {
						covered = append(covered, v)
					}
				}
				if len(covered) == 0 {
					covered = []int{rng.Intn(n)}
				}
				items[i] = submodular.CoverageItem{Value: rng.UniformRange(0.1, 2), CoveredBy: covered}
			}
			u, err := submodular.NewCoverageUtility(n, items)
			if err != nil {
				t.Fatal(err)
			}
			factory = func() submodular.RemovalOracle { return u.Oracle() }
		}
		p, err := energy.PeriodFromRho(rho)
		if err != nil {
			t.Fatal(err)
		}
		in := Instance{N: n, Period: p, Factory: factory}

		want, err := Greedy(in)
		if err != nil {
			t.Fatal(err)
		}
		wantAssign := want.Assignment()
		wantUtil := want.PeriodUtility(in.Factory)

		engines := map[string]func() (*Schedule, error){
			"ReferenceGreedy": func() (*Schedule, error) { return ReferenceGreedy(in) },
			"ParallelLazy-2":  func() (*Schedule, error) { return ParallelLazyGreedy(in, 2) },
			"ParallelLazy-3":  func() (*Schedule, error) { return ParallelLazyGreedy(in, 3) },
			"ParallelLazy-4":  func() (*Schedule, error) { return ParallelLazyGreedy(in, 4) },
			"LazyGreedy":      func() (*Schedule, error) { return LazyGreedy(in) },
		}
		for name, run := range engines {
			got, err := run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !assignmentsEqual(got.Assignment(), wantAssign) {
				t.Fatalf("%s diverged from Greedy\n got %v\nwant %v (n=%d m=%d rho=%v cover=%.3f seed=%d)",
					name, got.Assignment(), wantAssign, n, m, rho, cover, seed)
			}
			if gu := got.PeriodUtility(in.Factory); gu != wantUtil {
				t.Fatalf("%s utility %v != Greedy %v", name, gu, wantUtil)
			}
		}
	})
}
