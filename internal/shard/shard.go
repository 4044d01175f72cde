// Package shard scales field planning and packet simulation to
// million-node deployments by geometric decomposition: the deployment
// is cut into k vertical strips along grid-cell boundaries (reusing the
// internal/geometry/grid cell geometry), each strip is planned or
// simulated by the existing flat engines independently, and the strips
// are stitched back together at the borders.
//
// # Why this is sound
//
// Sensing is spatially local: a sensor's footprint is contained in the
// Chebyshev square [x±reach] × [y±reach] (the grid.Item contract), so a
// sensor can cover a target homed in a different strip only when its
// footprint crosses the cut between them — such sensors are classified
// *halo*, everything else is *interior*. An interior sensor's entire
// coverage lives inside its home strip, which its shard planner saw in
// full; the only cross-strip utility the per-shard plans can miss is
// carried by halo sensors. The bounded border-correction sweep
// (correct.go) therefore re-argmaxes exactly the halo sensors against
// the merged global per-slot oracles, repairing every dropped
// cross-border marginal in O(halo · T · degree) per round.
//
// The decomposition is a heuristic, not an approximation theorem: the
// planner reports the achieved utility (and the caller benchmarks the
// gap against the global greedy) as a first-class output, so a speedup
// is never quoted without its quality cost. k = 1 bypasses the
// decomposition entirely and is bit-identical to the global engine.
//
// The same strip geometry shards the packet simulator (net.go):
// per-strip flat netsim cores tick in lockstep and exchange boundary
// packets each tick through netsim.BatchFrom injections, keeping the
// summed packet counters exactly equal to a single global core's.
package shard

import (
	"cool/internal/core"
	"cool/internal/energy"
)

// SensorGeom is the partitioner's view of one sensor: its anchor and
// the Chebyshev reach of its footprint (wsn.Sensor.Reach). Index in the
// slice is the sensor's global ID.
type SensorGeom struct {
	X, Y  float64
	Reach float64
}

// TargetGeom is the partitioner's view of one target.
type TargetGeom struct {
	X, Y float64
}

// Problem is one sharded planning problem: the deployment geometry, the
// global instance (the k=1 / correction-sweep oracle source), and a
// factory for per-shard sub-utilities.
type Problem struct {
	// Sensors holds the geometry of every sensor, indexed by global ID;
	// len(Sensors) must equal Global.N.
	Sensors []SensorGeom
	// Targets holds the geometry of every target.
	Targets []TargetGeom
	// Period is the charging period (must match Global.Period).
	Period energy.Period
	// Global is the full flat instance; its factory builds oracles over
	// the whole ground set.
	Global core.Instance
	// BuildShard builds an oracle factory for the sub-utility restricted
	// to the given sensors and targets (both ascending global IDs).
	// Local sensor u of the returned factory's ground set corresponds to
	// global sensor sensors[u]. Cross edges to targets outside the list
	// must be dropped — that loss is what the correction sweep repairs.
	BuildShard func(sensors, targets []int) (core.OracleFactory, error)
}

// Options tunes Plan.
type Options struct {
	// Shards is the requested shard count k; <= 0 selects
	// runtime.NumCPU(), mirroring the parallel.Workers convention. The
	// effective count is clamped to the populated cut geometry and
	// reported in Result.EffectiveShards.
	Shards int
	// Workers bounds the goroutines planning shards concurrently
	// (<= 0 selects NumCPU).
	Workers int
	// MaxRounds bounds the border-correction sweep: 0 selects the
	// default (4), negative disables the sweep entirely.
	MaxRounds int
}

// DefaultMaxRounds is the border-correction round bound when
// Options.MaxRounds is zero. The sweep converges (zero moves) after one
// or two rounds on every benchmarked deployment; the bound exists so a
// pathological tie structure cannot loop.
const DefaultMaxRounds = 4

// Result is a sharded plan with its quality accounting.
type Result struct {
	// Schedule is the final stitched schedule over the full ground set.
	Schedule *core.Schedule
	// RequestedShards is Options.Shards after the NumCPU normalization;
	// EffectiveShards is the shard count actually used after clamping to
	// the populated cut geometry.
	RequestedShards, EffectiveShards int
	// Interior and Halo count the sensor classification (Interior +
	// Halo == N). EffectiveShards == 1 means no cuts, hence Halo == 0.
	Interior, Halo int
	// Rounds and Moves summarize the border-correction sweep: rounds
	// executed and total sensor reassignments applied.
	Rounds, Moves int
	// UtilityBefore is the period utility of the merged per-shard plans
	// before the correction sweep; Utility is the final schedule's. Both
	// are evaluated with fresh oracles from Global.Factory, so they are
	// directly comparable to the global engines' PeriodUtility.
	UtilityBefore, Utility float64
	// Cuts holds the interior strip boundaries (ascending x), length
	// EffectiveShards-1.
	Cuts []float64
}
