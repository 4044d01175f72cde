// Package energy models the recharge/discharge behaviour of a
// solar-powered sensor node (Section II-B of the paper): the battery,
// the three-state automaton (active / passive / ready), and the charging
// period T = Tr + Td with ratio ρ = Tr/Td.
package energy

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// State is the operating state of a sensor node at a time instant.
type State int

const (
	// StateActive means the node is powered on, sensing and
	// communicating, and draining its battery at rate μd.
	StateActive State = iota + 1
	// StatePassive means the battery is depleted and the node is
	// recharging at rate μr; it performs no other operation.
	StatePassive
	// StateReady means the battery is fully charged and the node waits
	// (with negligible drain) until it is activated.
	StateReady
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StatePassive:
		return "passive"
	case StateReady:
		return "ready"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Rates bundles the discharging and recharging speeds of a node. The
// units are energy per time-slot; only the ratio matters to scheduling.
type Rates struct {
	// Discharge is μd, the energy drained per slot in the active state.
	Discharge float64
	// Recharge is μr, the energy harvested per slot in the passive
	// state.
	Recharge float64
}

// Validate reports whether both rates are positive and finite.
func (r Rates) Validate() error {
	if !(r.Discharge > 0) || math.IsInf(r.Discharge, 0) {
		return fmt.Errorf("energy: invalid discharge rate %v", r.Discharge)
	}
	if !(r.Recharge > 0) || math.IsInf(r.Recharge, 0) {
		return fmt.Errorf("energy: invalid recharge rate %v", r.Recharge)
	}
	return nil
}

// Period describes one charging period of the system in time-slots:
// the paper's T = Tr + Td after normalizing the slot length to
// min(Tr, Td). ActiveSlots is the number of slots a node may be active
// per period and PassiveSlots the number it must spend recharging.
type Period struct {
	// ActiveSlots is 1 when ρ ≥ 1 and 1/ρ when ρ < 1.
	ActiveSlots int
	// PassiveSlots is ρ when ρ ≥ 1 and 1 when ρ < 1.
	PassiveSlots int
}

// Slots returns the total number of time-slots in the period (the
// paper's T, equal to ρ+1 or 1+1/ρ).
func (p Period) Slots() int { return p.ActiveSlots + p.PassiveSlots }

// Rho returns the ratio ρ = Tr/Td implied by the period.
func (p Period) Rho() float64 {
	return float64(p.PassiveSlots) / float64(p.ActiveSlots)
}

// Validate reports whether the period is well formed. The paper's model
// requires exactly one of the two phases to be a single slot (the slot
// length is normalized to the shorter of Td and Tr) and at least one
// slot in each phase.
func (p Period) Validate() error {
	if p.ActiveSlots < 1 || p.PassiveSlots < 1 {
		return fmt.Errorf("energy: period %+v has empty phase", p)
	}
	if p.ActiveSlots > 1 && p.PassiveSlots > 1 {
		return fmt.Errorf(
			"energy: period %+v not normalized (one phase must be a single slot)", p)
	}
	return nil
}

// ErrBadRatio is returned when a charging ratio cannot be normalized to
// an integral period.
var ErrBadRatio = errors.New("energy: ratio is not integral after normalization")

// PeriodFromRho builds the normalized Period for a charging ratio
// ρ = Tr/Td. Following the paper's simplification, ρ (when ρ ≥ 1) or
// 1/ρ (when ρ < 1) must be an integer within a small tolerance.
func PeriodFromRho(rho float64) (Period, error) {
	if !(rho > 0) || math.IsInf(rho, 0) {
		return Period{}, fmt.Errorf("energy: invalid ratio %v", rho)
	}
	const tol = 1e-9
	if rho >= 1 {
		r := math.Round(rho)
		if math.Abs(rho-r) > tol*math.Max(1, rho) {
			return Period{}, fmt.Errorf("%w: rho=%v", ErrBadRatio, rho)
		}
		return Period{ActiveSlots: 1, PassiveSlots: int(r)}, nil
	}
	inv := 1 / rho
	r := math.Round(inv)
	if math.Abs(inv-r) > tol*math.Max(1, inv) {
		return Period{}, fmt.Errorf("%w: 1/rho=%v", ErrBadRatio, inv)
	}
	return Period{ActiveSlots: int(r), PassiveSlots: 1}, nil
}

// PeriodFromTimes builds the normalized Period from measured recharge
// and discharge durations (e.g. Tr = 45 min, Td = 15 min on the paper's
// sunny-weather testbed, giving ρ = 3 and T = 4 slots). The slot length
// is the shorter of the two durations; both durations must be integral
// multiples of it within tolerance.
func PeriodFromTimes(recharge, discharge time.Duration) (Period, time.Duration, error) {
	if recharge <= 0 || discharge <= 0 {
		return Period{}, 0, fmt.Errorf(
			"energy: non-positive durations Tr=%v Td=%v", recharge, discharge)
	}
	rho := float64(recharge) / float64(discharge)
	p, err := PeriodFromRho(rho)
	if err != nil {
		return Period{}, 0, err
	}
	slot := discharge
	if recharge < discharge {
		slot = recharge
	}
	return p, slot, nil
}

// Battery is the energy store of one node. The zero value is not valid;
// use NewBattery.
type Battery struct {
	capacity float64
	level    float64
	rates    Rates
	state    State
}

// NewBattery returns a fully charged battery in the ready state. It
// returns an error when the capacity is not positive or the rates are
// invalid.
func NewBattery(capacity float64, rates Rates) (*Battery, error) {
	if !(capacity > 0) || math.IsInf(capacity, 0) {
		return nil, fmt.Errorf("energy: invalid capacity %v", capacity)
	}
	if err := rates.Validate(); err != nil {
		return nil, err
	}
	return &Battery{
		capacity: capacity,
		level:    capacity,
		rates:    rates,
		state:    StateReady,
	}, nil
}

// Level returns the current energy level in [0, B].
func (b *Battery) Level() float64 { return b.level }

// State returns the node's current operating state.
func (b *Battery) State() State { return b.state }

// Rates returns the configured charge/discharge rates.
func (b *Battery) Rates() Rates { return b.rates }

// SetRates replaces the charge/discharge rates, e.g. when the estimated
// charging pattern changes with the weather. It returns an error when
// the new rates are invalid.
func (b *Battery) SetRates(r Rates) error {
	if err := r.Validate(); err != nil {
		return err
	}
	b.rates = r
	return nil
}

// ErrNotReady is returned by ForceActivate when the battery cannot
// sustain one active slot.
var ErrNotReady = errors.New("energy: node is not ready")

// Rest switches the node into the passive (recharging) state
// regardless of its current state. The ρ ≤ 1 schedules of the paper
// deliberately rest partially drained nodes during their scheduled
// passive slot; resting a full node is harmless (the next tick returns
// it to ready).
func (b *Battery) Rest() { b.state = StatePassive }

// CanSustainActive reports whether the battery holds enough energy to
// stay active for one full slot. Under the normalized deterministic
// model this coincides with the paper's "fully charged" activation rule
// when ρ ≥ 1 (one slot drains the whole battery) and with the
// mid-period partial-charge activations the ρ ≤ 1 regime needs.
func (b *Battery) CanSustainActive() bool {
	return b.level >= b.rates.Discharge-1e-9
}

// ForceActivate activates the node from any state provided it can
// sustain one active slot, implementing the scheduler-driven state
// control of the slotted simulator. It returns ErrNotReady when the
// energy does not suffice.
func (b *Battery) ForceActivate() error {
	if !b.CanSustainActive() {
		return fmt.Errorf("%w: level %v below per-slot drain %v",
			ErrNotReady, b.level, b.rates.Discharge)
	}
	b.state = StateActive
	return nil
}

// Tick advances the battery by one time-slot, applying the drain or
// charge appropriate to the current state and performing the automatic
// transitions active→passive (on depletion) and passive→ready (on full
// charge). It returns the state after the tick.
func (b *Battery) Tick() State {
	switch b.state {
	case StateActive:
		b.level -= b.rates.Discharge
		if b.level <= 1e-12 {
			b.level = 0
			b.state = StatePassive
		}
	case StatePassive:
		b.level += b.rates.Recharge
		if b.level >= b.capacity-1e-12 {
			b.level = b.capacity
			b.state = StateReady
		}
	case StateReady:
		// Ready drain is negligible by assumption (Section II-B).
	}
	return b.state
}
