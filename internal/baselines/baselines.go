// Package baselines provides the non-greedy scheduling policies the
// evaluation compares against: random assignment, round-robin striding,
// all-in-first-slot, and a singleton-gain-sorted stride. All produce
// the same periodic core.Schedule type as the paper's algorithm, so
// they run under the identical simulator and benchmarks.
package baselines

import (
	"errors"
	"fmt"
	"sort"

	"cool/internal/core"
	"cool/internal/stats"
)

// Random assigns every sensor to a uniformly random slot of the period
// (placement mode) or a uniformly random passive slot (removal mode).
// It is the natural "no coordination" baseline.
func Random(in core.Instance, rng *stats.RNG) (*core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("baselines: nil RNG")
	}
	T := in.Period.Slots()
	assign := make([]int, in.N)
	for v := range assign {
		assign[v] = rng.Intn(T)
	}
	return core.NewSchedule(core.ModeFor(in.Period), T, assign)
}

// RoundRobin stripes sensors across slots in ID order (sensor v to slot
// v mod T). With homogeneous sensors it spreads activations perfectly
// evenly — the strongest uninformed baseline — but it ignores coverage
// structure entirely.
func RoundRobin(in core.Instance) (*core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	T := in.Period.Slots()
	assign := make([]int, in.N)
	for v := range assign {
		assign[v] = v % T
	}
	return core.NewSchedule(core.ModeFor(in.Period), T, assign)
}

// FirstSlot activates every sensor in slot 0 of each period (placement
// mode) or rests every sensor in slot 0 (removal mode) — the degenerate
// schedule that wastes the diminishing returns of simultaneous
// activation. It exists as the lower anchor of comparisons.
func FirstSlot(in core.Instance) (*core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	assign := make([]int, in.N) // all zeros
	return core.NewSchedule(core.ModeFor(in.Period), in.Period.Slots(), assign)
}

// SortedStride orders sensors by decreasing singleton utility and then
// stripes them round-robin across slots, so each slot receives a
// similar mix of strong and weak sensors. It uses one utility
// evaluation per sensor — a cheap coverage-aware heuristic between
// RoundRobin and the full greedy.
func SortedStride(in core.Instance) (*core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	gains := make([]float64, in.N)
	o := in.Factory()
	for v := 0; v < in.N; v++ {
		gains[v] = o.Gain(v)
	}
	order := make([]int, in.N)
	for v := range order {
		order[v] = v
	}
	sort.SliceStable(order, func(i, j int) bool {
		return gains[order[i]] > gains[order[j]]
	})
	T := in.Period.Slots()
	assign := make([]int, in.N)
	for rank, v := range order {
		assign[v] = rank % T
	}
	return core.NewSchedule(core.ModeFor(in.Period), T, assign)
}

// Name identifies a baseline for reporting.
type Name string

// Baseline names used by the experiment harness.
const (
	NameRandom       Name = "random"
	NameRoundRobin   Name = "round-robin"
	NameFirstSlot    Name = "first-slot"
	NameSortedStride Name = "sorted-stride"
	NameGreedy       Name = "greedy"
	// NameLazyGreedy plans through core.Greedy like NameGreedy; the
	// name stays so that callers requesting it keep working.
	NameLazyGreedy Name = "lazy-greedy"
)

// Build computes the named baseline (or the paper's greedy) schedule.
func Build(name Name, in core.Instance, rng *stats.RNG) (*core.Schedule, error) {
	switch name {
	case NameRandom:
		return Random(in, rng)
	case NameRoundRobin:
		return RoundRobin(in)
	case NameFirstSlot:
		return FirstSlot(in)
	case NameSortedStride:
		return SortedStride(in)
	case NameGreedy, NameLazyGreedy:
		return core.Greedy(in)
	default:
		return nil, fmt.Errorf("baselines: unknown policy %q", name)
	}
}

// All lists every policy Build accepts, in reporting order.
func All() []Name {
	return []Name{
		NameGreedy, NameLazyGreedy, NameSortedStride,
		NameRoundRobin, NameRandom, NameFirstSlot,
	}
}
