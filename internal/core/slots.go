package core

import (
	"fmt"

	"cool/internal/submodular"
)

// slotOracles materializes the per-slot oracle state implied by an
// assignment vector, without going through a Schedule: oracles[t]
// represents the active set of slot t under the given mode semantics
// (assign[v] is v's single active slot in placement mode, its single
// passive slot in removal mode; -1 means never active / always active
// respectively). Sensors are folded in ascending ID order, so the
// floating-point state of each oracle is a deterministic function of
// the assignment.
//
// It is the one place an engine builds slot oracles: the climb starts
// from the empty plan's oracles, and Sweep rebuilds the sharded
// planner's merged global per-slot state once, then repairs it
// incrementally with Add/Remove as halo sensors are re-argmaxed.
func slotOracles(in Instance, mode Mode, assign []int) ([]submodular.RemovalOracle, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if len(assign) != in.N {
		return nil, fmt.Errorf("core: assignment covers %d sensors, instance has %d", len(assign), in.N)
	}
	T := in.Period.Slots()
	for v, t := range assign {
		if t != Absent && (t < -1 || t >= T) {
			return nil, fmt.Errorf("core: sensor %d assigned to slot %d outside [0,%d)", v, t, T)
		}
	}
	if mode != ModePlacement && mode != ModeRemoval {
		return nil, fmt.Errorf("core: invalid mode %v", mode)
	}
	oracles := make([]submodular.RemovalOracle, T)
	for t := range oracles {
		o := in.Factory()
		if o == nil {
			return nil, fmt.Errorf("core: oracle factory returned nil for slot %d", t)
		}
		if mode == ModeRemoval {
			for v, a := range assign {
				if a != Absent {
					o.Add(v)
				}
			}
		}
		oracles[t] = o
	}
	for v, t := range assign {
		if t < 0 {
			continue
		}
		if mode == ModeRemoval {
			oracles[t].Remove(v)
		} else {
			oracles[t].Add(v)
		}
	}
	return oracles, nil
}
