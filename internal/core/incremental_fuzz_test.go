package core

import (
	"math"
	"testing"

	"cool/internal/energy"
	"cool/internal/stats"
	"cool/internal/submodular"
)

// FuzzIncrementalEquivalence is the differential harness for the online
// replanner: for any seeded instance and any random perturbation
// sequence (kill batches, re-deploy batches, ρ drifts, polish sweeps)
// the Repairer must keep the committed schedule feasible, keep its
// incrementally-maintained utility bit-consistent with a fresh
// evaluation, match the from-scratch planners exactly wherever the
// design demands bit-identity (construction, and ρ updates that rebuild),
// repair monotonically, and — once the sweep reaches a local-search
// fixed point — stay within the structural ½-approximation gap of the
// full replan. The committed corpus pins both regimes, both utility
// models, regime-flipping drifts, and fleet-emptying kill sequences.
func FuzzIncrementalEquivalence(f *testing.F) {
	// (seed, nRaw, mRaw, rhoRaw, coverRaw, ops) — decoded below; each
	// op byte encodes kind (low bits) and a parameter (high bits).
	f.Add(uint64(1), uint8(12), uint8(3), uint8(5), uint8(120), []byte{0x00, 0x41, 0x03})
	f.Add(uint64(2), uint8(20), uint8(2), uint8(4), uint8(200), []byte{0x10, 0x00, 0x01, 0x03})
	f.Add(uint64(3), uint8(8), uint8(2), uint8(0), uint8(90), []byte{0x22, 0x00, 0x02}) // removal regime, drifts
	f.Add(uint64(4), uint8(5), uint8(4), uint8(8), uint8(60), []byte{0x00, 0x00, 0x00}) // kill toward empty
	f.Add(uint64(5), uint8(25), uint8(5), uint8(6), uint8(30), []byte{0x42, 0x01, 0x82, 0x00, 0x01})
	f.Add(uint64(6), uint8(15), uint8(4), uint8(3), uint8(250), []byte{0x03, 0x30, 0x31, 0x02}) // dense, removal
	f.Add(uint64(7), uint8(17), uint8(2), uint8(7), uint8(160), []byte{0x62, 0x00, 0x12, 0x01, 0x03})
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, mRaw, rhoRaw, coverRaw uint8, ops []byte) {
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

		r, err := NewRepairer(in)
		if err != nil {
			t.Fatal(err)
		}
		// Invariant 1: construction is bit-identical to the one-shot greedy.
		want, err := Greedy(in)
		if err != nil {
			t.Fatal(err)
		}
		s := mustConsistent(t, r, in)
		if !assignmentsEqual(s.Assignment(), want.Assignment()) {
			t.Fatalf("NewRepairer diverged from Greedy\n got %v\nwant %v (n=%d rho=%v seed=%d)",
				s.Assignment(), want.Assignment(), n, rho, seed)
		}

		if len(ops) > 12 {
			ops = ops[:12]
		}
		for k, op := range ops {
			opRng := stats.NewRNG(seed ^ (uint64(k+1) * 0x9e3779b97f4a7c15))
			var live, dead []int
			for v := 0; v < n; v++ {
				if r.Present(v) {
					live = append(live, v)
				} else {
					dead = append(dead, v)
				}
			}
			param := int(op >> 4)
			switch op & 0x03 {
			case 0: // kill a batch
				if len(live) <= 1 {
					continue
				}
				k := 1 + param%min(4, len(live)-1)
				batch := pickRandom(opRng, live, k)
				st, err := r.RemoveSensors(batch)
				if err != nil {
					t.Fatalf("RemoveSensors(%v): %v", batch, err)
				}
				// The damage front holds surviving neighbors only — the
				// removed sensors themselves are filtered out as absent.
				if st.Changed != len(batch) {
					t.Fatalf("removal stats inconsistent: %+v", st)
				}
			case 1: // re-deploy a batch
				if len(dead) == 0 {
					continue
				}
				k := 1 + param%min(4, len(dead))
				batch := pickRandom(opRng, dead, k)
				st, err := r.AddSensors(batch)
				if err != nil {
					t.Fatalf("AddSensors(%v): %v", batch, err)
				}
				// Invariant 2: adding sensors never hurts a monotone utility.
				if st.Utility < st.UtilityBefore-1e-9 {
					t.Fatalf("AddSensors decreased utility %v -> %v", st.UtilityBefore, st.Utility)
				}
			case 2: // rho drift
				newRho := rhos[param%len(rhos)]
				prevAssign := append([]int(nil), r.c.assign...)
				prevShape := r.Period()
				st, err := r.UpdateRho(newRho)
				if err != nil {
					t.Fatalf("UpdateRho(%v): %v", newRho, err)
				}
				np, _ := energy.PeriodFromRho(newRho)
				if np.Slots() == prevShape.Slots() && np.ActiveSlots == prevShape.ActiveSlots {
					// Invariant 3a: same-shape drift is a strict no-op.
					if st.Full || st.Changed != 0 || st.Moves != 0 {
						t.Fatalf("same-shape UpdateRho not a no-op: %+v", st)
					}
					if !assignmentsEqual(r.c.assign, prevAssign) {
						t.Fatal("same-shape UpdateRho changed the assignment")
					}
				} else {
					// Invariant 3b: a shape change rebuilds bit-identically
					// to the from-scratch subset planner.
					if !st.Full {
						t.Fatalf("shape-changing UpdateRho not marked Full: %+v", st)
					}
					present := make([]bool, n)
					for v := 0; v < n; v++ {
						present[v] = r.Present(v)
					}
					ws, err := GreedySubset(Instance{N: n, Period: np, Factory: factory}, present)
					if err != nil {
						t.Fatal(err)
					}
					gs := mustConsistent(t, r, Instance{N: n, Period: np, Factory: factory})
					if !assignmentsEqual(gs.Assignment(), ws.Assignment()) {
						t.Fatalf("UpdateRho(%v) diverged from GreedySubset\n got %v\nwant %v",
							newRho, gs.Assignment(), ws.Assignment())
					}
				}
			case 3: // polish sweep
				st := r.RepairAll()
				// Invariant 4: the sweep is monotone.
				if st.Utility < st.UtilityBefore-1e-9 {
					t.Fatalf("RepairAll decreased utility %v -> %v", st.UtilityBefore, st.Utility)
				}
			}
			// Invariant 5: every op leaves a feasible, self-consistent state.
			mustConsistent(t, r, Instance{N: n, Period: r.Period(), Factory: factory})
		}

		// Invariant 6: at a local-search fixed point the committed
		// schedule is within the ½ bound of the full replan.
		if convergeRepairer(r) {
			gap, err := r.GapVsFullReplan()
			if err != nil {
				t.Fatal(err)
			}
			if gap > 50+1e-9 {
				t.Fatalf("converged gap %v%% exceeds 50%% (n=%d rho=%v seed=%d ops=%x)",
					gap, n, rho, seed, ops)
			}
		}
	})
}

// mustConsistent is checkRepairerConsistency with Fatal semantics usable
// from the fuzz body.
func mustConsistent(t *testing.T, r *Repairer, in Instance) *Schedule {
	t.Helper()
	s, err := r.Schedule()
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := s.CheckFeasible(r.Period()); err != nil {
		t.Fatalf("infeasible committed schedule: %v", err)
	}
	nPresent := 0
	for v, slot := range s.Assignment() {
		if slot == Absent {
			if r.Present(v) {
				t.Fatalf("sensor %d absent in assignment but present", v)
			}
			continue
		}
		nPresent++
	}
	if nPresent != r.NumPresent() {
		t.Fatalf("NumPresent = %d, assignment has %d", r.NumPresent(), nPresent)
	}
	fresh := s.PeriodUtility(in.Factory)
	if live := r.Utility(); math.Abs(live-fresh) > 1e-6*(1+math.Abs(fresh)) {
		t.Fatalf("live utility %v drifted from fresh evaluation %v", live, fresh)
	}
	checkIdleClimb(t, r.in, r.c)
	return s
}
