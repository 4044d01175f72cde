package core

import (
	"fmt"

	"cool/internal/submodular"
)

// ReferenceGreedySubset is the uncached eager-scan counterpart of
// GreedySubset — the seed-style reference the incremental edge-case
// tests cross-check perturbed fleets against.
func ReferenceGreedySubset(in Instance, present []bool) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if present == nil {
		return ReferenceGreedy(in)
	}
	if len(present) != in.N {
		return nil, fmt.Errorf("core: present covers %d sensors, instance has %d", len(present), in.N)
	}
	T := in.Period.Slots()
	removal := ModeFor(in.Period) == ModeRemoval
	assign := newAssignment(in.N)
	live := 0
	for v := 0; v < in.N; v++ {
		if present[v] {
			live++
		} else {
			assign[v] = Absent
		}
	}
	oracles := make([]submodular.RemovalOracle, T)
	for t := range oracles {
		o := in.Factory()
		if removal {
			for v := 0; v < in.N; v++ {
				if present[v] {
					o.Add(v)
				}
			}
		}
		oracles[t] = o
	}
	for step := 0; step < live; step++ {
		bestV, bestT := -1, -1
		bestM := 0.0
		first := true
		for v := 0; v < in.N; v++ {
			if assign[v] != -1 {
				continue
			}
			for t := 0; t < T; t++ {
				if removal {
					if l := oracles[t].Loss(v); first || l < bestM {
						bestV, bestT, bestM = v, t, l
						first = false
					}
				} else {
					if g := oracles[t].Gain(v); first || g > bestM {
						bestV, bestT, bestM = v, t, g
						first = false
					}
				}
			}
		}
		if bestV < 0 {
			return nil, fmt.Errorf("core: subset greedy found no candidate at step %d", step)
		}
		if removal {
			oracles[bestT].Remove(bestV)
		} else {
			oracles[bestT].Add(bestV)
		}
		assign[bestV] = bestT
	}
	if removal {
		return NewSchedule(ModeRemoval, T, assign)
	}
	return NewSchedule(ModePlacement, T, assign)
}
