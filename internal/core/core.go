// Package core implements the paper's primary contribution: dynamic
// node-activation scheduling for solar-powered sensor networks with
// submodular coverage utility.
//
// It contains the greedy hill-climbing schemes for ρ > 1 (placement
// form, Algorithm 1) and ρ ≤ 1 (passive-slot removal form, Section
// IV-B), the LP relaxation with randomized rounding (Section
// IV-A-1), an exact branch-and-bound solver used as the evaluation's
// "optimal by enumeration" yardstick, the closed-form utility upper
// bounds, and the Subset-Sum hardness gadget of Theorem 3.1.
package core

import (
	"errors"
	"fmt"
	"sync"

	"cool/internal/energy"
	"cool/internal/submodular"
)

// OracleFactory creates a fresh incremental utility oracle representing
// the empty active set of one time-slot. The schedulers create one
// oracle per slot of the period; every slot shares the same underlying
// utility function (the paper's U is time-invariant within an
// estimation horizon).
type OracleFactory func() submodular.RemovalOracle

// Instance is one scheduling problem: n sensors, a normalized charging
// period, and the per-slot utility.
type Instance struct {
	// N is the number of sensors.
	N int
	// Period is the normalized charging period (T slots).
	Period energy.Period
	// Factory builds per-slot utility oracles.
	Factory OracleFactory
}

// Validate reports whether the instance is well formed.
func (in Instance) Validate() error {
	if in.N <= 0 {
		return fmt.Errorf("core: non-positive sensor count %d", in.N)
	}
	if err := in.Period.Validate(); err != nil {
		return err
	}
	if in.Factory == nil {
		return errors.New("core: nil oracle factory")
	}
	return nil
}

// Mode distinguishes the two greedy regimes of the paper.
type Mode int

const (
	// ModePlacement is the ρ ≥ 1 regime: each sensor is active exactly
	// one slot per period and the scheduler chooses which.
	ModePlacement Mode = iota + 1
	// ModeRemoval is the ρ ≤ 1 regime: each sensor is passive exactly
	// one slot per period and the scheduler chooses which.
	ModeRemoval
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModePlacement:
		return "placement"
	case ModeRemoval:
		return "removal"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ModeFor returns the regime appropriate for a period: placement when
// the node gets a single active slot, removal when it gets several.
func ModeFor(p energy.Period) Mode {
	if p.ActiveSlots == 1 {
		return ModePlacement
	}
	return ModeRemoval
}

// Schedule is a periodic activation schedule: the assignment computed
// on one period and repeated for the whole working time (Theorem 4.3
// proves the repetition preserves the 1/2-approximation).
type Schedule struct {
	mode   Mode
	period int
	// assign[v] is the chosen slot of sensor v within the period: its
	// single active slot (placement) or its single passive slot
	// (removal). −1 means unassigned (sensor never active in placement
	// mode, always active in removal mode); Absent (−2) means the
	// sensor is inactive in every slot in both modes.
	assign []int
	// slots[t] is the sorted active set of slot t. Serving a schedule
	// reads only assign, so the lists are built on first use by
	// ActiveAt or SlotSizes, once, under slotsOnce.
	slotsOnce sync.Once
	slots     [][]int
}

// Absent is the assignment marker for a sensor that is inactive in
// every slot of the period, in both modes. The removal regime's −1
// ("always active") cannot express a dead or removed sensor, so the
// incremental Repairer uses Absent to keep sensor IDs stable across
// fleet perturbations instead of compacting the ground set.
const Absent = -2

// MaxPeriod bounds the number of slots in one period. Physical
// recharge/discharge ratios give periods of at most a few dozen slots;
// the bound exists so that a malformed or hostile serialized schedule
// (period is attacker-controlled JSON) cannot drive the O(period) slot
// cache into a huge or overflowing allocation.
const MaxPeriod = 1 << 20

// NewSchedule builds a schedule from an explicit assignment vector.
// Callers normally obtain schedules from the solvers instead.
func NewSchedule(mode Mode, period int, assign []int) (*Schedule, error) {
	if mode != ModePlacement && mode != ModeRemoval {
		return nil, fmt.Errorf("core: invalid mode %v", mode)
	}
	if period <= 0 {
		return nil, fmt.Errorf("core: non-positive period %d", period)
	}
	if period > MaxPeriod {
		return nil, fmt.Errorf("core: period %d exceeds MaxPeriod %d", period, MaxPeriod)
	}
	for v, t := range assign {
		if t != Absent && (t < -1 || t >= period) {
			return nil, fmt.Errorf("core: sensor %d assigned to slot %d outside [0,%d)", v, t, period)
		}
	}
	return &Schedule{
		mode:   mode,
		period: period,
		assign: append([]int(nil), assign...),
	}, nil
}

// activeSets returns the per-slot active lists, built on first use.
func (s *Schedule) activeSets() [][]int {
	s.slotsOnce.Do(s.buildSlots)
	return s.slots
}

// buildSlots fills slots. Sensors are visited in ascending order, so
// every list comes out sorted.
func (s *Schedule) buildSlots() {
	s.slots = make([][]int, s.period)
	for v, t := range s.assign {
		if t == Absent {
			continue // inactive everywhere in both modes
		}
		switch s.mode {
		case ModePlacement:
			if t >= 0 {
				s.slots[t] = append(s.slots[t], v)
			}
		case ModeRemoval:
			for slot := 0; slot < s.period; slot++ {
				if slot != t {
					s.slots[slot] = append(s.slots[slot], v)
				}
			}
		}
	}
}

// Mode returns the schedule's regime.
func (s *Schedule) Mode() Mode { return s.mode }

// Period returns T, the number of slots in one period.
func (s *Schedule) Period() int { return s.period }

// NumSensors returns the number of sensors the schedule covers.
func (s *Schedule) NumSensors() int { return len(s.assign) }

// Assignment returns a copy of the per-sensor slot assignment (see
// NewSchedule for semantics).
func (s *Schedule) Assignment() []int { return append([]int(nil), s.assign...) }

// ActiveAt returns the sensors active at absolute slot t (t may exceed
// the period; the schedule tiles). The returned slice must not be
// modified.
func (s *Schedule) ActiveAt(t int) []int {
	if t < 0 {
		t = ((t % s.period) + s.period) % s.period
	}
	return s.activeSets()[t%s.period]
}

// IsActiveAt reports whether sensor v is active at absolute slot t.
func (s *Schedule) IsActiveAt(v, t int) bool {
	if v < 0 || v >= len(s.assign) {
		return false
	}
	slot := t % s.period
	if slot < 0 {
		slot += s.period
	}
	if s.assign[v] == Absent {
		return false
	}
	switch s.mode {
	case ModePlacement:
		return s.assign[v] == slot
	case ModeRemoval:
		return s.assign[v] != slot
	default:
		return false
	}
}

// CheckFeasible verifies the paper's feasibility condition against a
// period: in any window of T consecutive slots each sensor is active at
// most ActiveSlots times (exactly the per-period budget, by
// construction of the tiling).
func (s *Schedule) CheckFeasible(p energy.Period) error {
	if p.Slots() != s.period {
		return fmt.Errorf("core: schedule period %d != energy period %d", s.period, p.Slots())
	}
	for v := range s.assign {
		active := 0
		for t := 0; t < s.period; t++ {
			if s.IsActiveAt(v, t) {
				active++
			}
		}
		if active > p.ActiveSlots {
			return fmt.Errorf(
				"core: sensor %d active %d slots per period, budget %d", v, active, p.ActiveSlots)
		}
	}
	return nil
}

// PeriodUtility evaluates Σ_{t<T} U(S(t)) for one period using a fresh
// oracle per slot.
func (s *Schedule) PeriodUtility(factory OracleFactory) float64 {
	var total float64
	for t := 0; t < s.period; t++ {
		o := factory()
		for _, v := range s.ActiveAt(t) {
			o.Add(v)
		}
		total += o.Value()
	}
	return total
}

// TotalUtility evaluates the schedule over a working time of L slots.
// L must be a multiple of the period (the paper's ℒ = αT).
func (s *Schedule) TotalUtility(factory OracleFactory, slotsL int) (float64, error) {
	if slotsL <= 0 || slotsL%s.period != 0 {
		return 0, fmt.Errorf("core: working time %d is not a positive multiple of T=%d", slotsL, s.period)
	}
	alpha := float64(slotsL / s.period)
	return alpha * s.PeriodUtility(factory), nil
}

// AverageUtility returns the paper's evaluation metric: average utility
// per time-slot, optionally further normalized per target by dividing
// by m (pass m = 1 to skip).
func (s *Schedule) AverageUtility(factory OracleFactory, targets int) float64 {
	if targets <= 0 {
		targets = 1
	}
	return s.PeriodUtility(factory) / float64(s.period) / float64(targets)
}

// SlotSizes returns how many sensors are active in each slot of the
// period — useful to inspect the "spread sensors evenly" behaviour the
// diminishing-returns property induces.
func (s *Schedule) SlotSizes() []int {
	sizes := make([]int, s.period)
	for t, active := range s.activeSets() {
		sizes[t] = len(active)
	}
	return sizes
}
