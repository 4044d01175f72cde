// Package cool is a Go implementation of "Cool: On Coverage with
// Solar-Powered Sensors" (Tang, Li, Shen, Zhang, Dai, Das — ICDCS
// 2011): dynamic node-activation scheduling for wireless sensor
// networks with solar-rechargeable batteries and submodular coverage
// utility.
//
// The library models networks of sensors with fixed sensing footprints
// monitoring targets or a weighted region, batteries that alternate
// between active (discharging), passive (recharging) and ready states
// with a short-horizon-stable charging period T = Tr + Td, and
// normalized non-decreasing submodular utility functions over the
// active set of each time-slot. Its scheduling algorithms compute
// periodic activation schedules:
//
//   - Greedy — the paper's greedy hill-climbing scheme (Algorithm 1
//     for ρ ≥ 1, the passive-slot removal form for ρ ≤ 1), with a
//     proven 1/2-approximation of the optimal average utility. The
//     lazy-greedy and parallel-lazy-greedy names plan through it too.
//   - Exact — branch-and-bound optimum for small instances, the
//     evaluation's enumeration yardstick.
//   - LPRound — the LP-relaxation + randomized-rounding baseline for
//     weighted-coverage utilities.
//   - Baselines — random, round-robin, first-slot, sorted-stride.
//
// Around the scheduler it provides the full evaluation substrate of the
// paper: a solar-harvesting simulator (light → panel current → battery
// voltage) with per-weather charging patterns, charging-pattern
// estimation from voltage traces, a slotted network simulator with
// deterministic and stochastic (Section V) charging and fault
// injection, and a packet-level protocol stack (slot sync, schedule
// dissemination, convergecast collection).
//
// Entry points: build a Network (Deploy or NewNetwork), derive a
// Utility (NewDetectionUtility, NewAreaUtility, NewTargetCountUtility
// or WrapFunction), create a Planner with a Period (PeriodFromRho or
// PeriodFromTimes), and call one of its scheduling methods. Simulate
// executes a schedule under an energy model; see the examples/
// directory for complete programs.
package cool

import (
	"time"

	"cool/internal/core"
	"cool/internal/energy"
	"cool/internal/geometry"
	"cool/internal/submodular"
)

// Version is the library version.
const Version = "1.0.0"

// Re-exported core types. Aliases keep one set of method docs while
// letting users stay entirely within this package.
type (
	// Schedule is a periodic activation schedule (see internal/core).
	Schedule = core.Schedule
	// Mode distinguishes placement (ρ ≥ 1) and removal (ρ ≤ 1)
	// schedule semantics.
	Mode = core.Mode
	// Period is a normalized charging period T = Tr + Td in slots.
	Period = energy.Period
	// Pattern is an estimated (Tr, Td) charging pattern.
	Pattern = energy.Pattern
	// Point is a 2-D location.
	Point = geometry.Point
	// Rect is an axis-aligned rectangle (deployment fields, Ω).
	Rect = geometry.Rect
	// Disk is the classical omnidirectional sensing footprint.
	Disk = geometry.Disk
	// Sector is a directional sensing footprint.
	Sector = geometry.Sector
	// Region is an arbitrary sensing footprint.
	Region = geometry.Region
	// Function is a set function over sensor indices; utilities must be
	// normalized, non-decreasing and submodular.
	Function = submodular.Function
	// Oracle evaluates a utility incrementally.
	Oracle = submodular.Oracle
	// RemovalOracle additionally supports deletions (needed for ρ ≤ 1).
	RemovalOracle = submodular.RemovalOracle
)

// Schedule mode constants.
const (
	// ModePlacement is the ρ ≥ 1 regime (one active slot per period).
	ModePlacement = core.ModePlacement
	// ModeRemoval is the ρ ≤ 1 regime (one passive slot per period).
	ModeRemoval = core.ModeRemoval
)

// PeriodFromRho normalizes a charging ratio ρ = Tr/Td into a period.
// ρ (or 1/ρ) must be integral, per the paper's simplification.
func PeriodFromRho(rho float64) (Period, error) {
	return energy.PeriodFromRho(rho)
}

// PeriodFromTimes normalizes measured recharge and discharge durations
// (e.g. 45 and 15 minutes on the paper's sunny testbed) into a period
// and the slot length.
func PeriodFromTimes(recharge, discharge time.Duration) (Period, time.Duration, error) {
	return energy.PeriodFromTimes(recharge, discharge)
}

// CheckSubmodular exhaustively verifies that a user-supplied utility is
// normalized, non-decreasing and submodular on a small ground set
// (≤ 12 sensors). The greedy guarantee (Lemma 4.1) requires these
// properties; run this on scaled-down instances of custom utilities.
func CheckSubmodular(fn Function) error {
	if err := submodular.IsNormalized(fn, 1e-9); err != nil {
		return err
	}
	if err := submodular.IsMonotone(fn, 1e-9); err != nil {
		return err
	}
	return submodular.IsSubmodular(fn, 1e-9)
}
