package cool

import (
	"errors"
	"fmt"
	"math"

	"cool/internal/baselines"
	"cool/internal/core"
	"cool/internal/shard"
	"cool/internal/stats"
	"cool/internal/submodular"
)

// Planner couples a utility with a charging period and computes
// periodic activation schedules. One Planner can produce schedules with
// every algorithm in the library; methods are independent and safe to
// call repeatedly.
type Planner struct {
	utility Utility
	period  Period
	inst    core.Instance
}

// NewPlanner validates the inputs and returns a planner for the
// utility's ground set (one slot assignment per sensor).
func NewPlanner(u Utility, period Period) (*Planner, error) {
	if u == nil {
		return nil, errors.New("cool: nil utility")
	}
	if err := period.Validate(); err != nil {
		return nil, err
	}
	if u.GroundSize() <= 0 {
		return nil, fmt.Errorf("cool: utility has empty ground set")
	}
	return &Planner{
		utility: u,
		period:  period,
		inst: core.Instance{
			N:       u.GroundSize(),
			Period:  period,
			Factory: u.NewOracle,
		},
	}, nil
}

// Period returns the planner's charging period.
func (p *Planner) Period() Period { return p.period }

func utilityAsLinearizable(u Utility) (core.Linearizable, bool) {
	if cu, ok := u.(coverageUtility); ok {
		return cu.CoverageUtility, true
	}
	return nil, false
}

// Baseline computes one of the comparison schedules: "random",
// "round-robin", "first-slot", "sorted-stride" (or "greedy" /
// "lazy-greedy" for the paper's algorithm through the same interface).
func (p *Planner) Baseline(name string, seed uint64) (*Schedule, error) {
	return baselines.Build(baselines.Name(name), p.inst, stats.NewRNG(seed))
}

// BaselineNames lists the accepted Baseline names in reporting order.
func BaselineNames() []string {
	all := baselines.All()
	out := make([]string, len(all))
	for i, n := range all {
		out[i] = string(n)
	}
	return out
}

// PeriodUtility evaluates Σ_{t<T} U(S(t)) of a schedule under the
// planner's utility.
func (p *Planner) PeriodUtility(s *Schedule) float64 {
	return s.PeriodUtility(p.inst.Factory)
}

// AverageUtility evaluates the paper's metric: average utility per slot
// per target (pass targets = 1 to skip target normalization).
func (p *Planner) AverageUtility(s *Schedule, targets int) float64 {
	return s.AverageUtility(p.inst.Factory, targets)
}

// Bracket returns lower and upper bounds on the optimal period utility
// ([greedy, min(2·greedy, T·U(V))]).
func (p *Planner) Bracket() (lower, upper float64, err error) {
	return core.ApproximationBracket(p.inst)
}

// PaperUpperBound re-exports the paper's Figure-8 closed-form bound
// U* = 1 − (1−p)^⌈n/T⌉ for a single target covered by all n sensors
// with identical detection probability p.
func PaperUpperBound(p float64, n int, period Period) (float64, error) {
	return core.PaperUpperBound(p, n, period.Slots())
}

// SubsetSumGadget re-exports the Theorem-3.1 NP-hardness reduction so
// downstream users can reproduce the hardness construction.
type SubsetSumGadget = core.SubsetSumGadget

// ExactOptions tunes the exact branch-and-bound search.
type ExactOptions = core.ExactOptions

// NewSubsetSumGadget builds the hardness gadget from positive integers.
func NewSubsetSumGadget(items []int64) (*SubsetSumGadget, error) {
	return core.NewSubsetSumGadget(items)
}

// NewInstanceOracleFactory exposes the utility's oracle factory in the
// form the internal scheduling and simulation APIs consume. Most users
// never need this; it exists for advanced composition.
func NewInstanceOracleFactory(u Utility) func() submodular.RemovalOracle {
	return u.NewOracle
}

// ShardedOptions tunes the sharded planner (ShardedDetectionPlan /
// ShardedTargetCountPlan): the field is cut into Shards vertical strips
// along grid-cell boundaries, each strip is planned independently by
// the flat engine on up to Workers goroutines, and a bounded
// border-correction sweep re-argmaxes the halo sensors (footprints
// crossing a cut) against the merged global state.
type ShardedOptions struct {
	// Shards requests the strip count; <= 0 selects runtime.NumCPU()
	// and the effective count is clamped to the populated geometry
	// (both mirror the parallel.Workers convention). Shards = 1 (after
	// clamping) is bit-identical to the global engine.
	Shards int
	// Workers bounds the per-strip planning concurrency (<= 0 NumCPU).
	Workers int
	// MaxRounds bounds the correction sweep (0 = default, < 0 = off).
	MaxRounds int
	// Lazy selects the CELF lazy engine per strip instead of the cached
	// eager greedy.
	Lazy bool
}

// ShardedResult is a sharded plan together with its decomposition and
// quality accounting. Utility and UtilityBefore are evaluated on the
// full global utility, directly comparable to Planner.PeriodUtility of
// a global schedule — report the gap, don't hide it.
//
// Online replans stay shardable: the incremental Repairer's sweep uses
// the exact same move discipline as the border-correction sweep that
// produced this result (lift one sensor, strict re-argmax, ties keep
// the current slot), so per-strip Repairer instances absorbing strip-
// local perturbations compose with a final border sweep over the cuts
// the same way the per-strip plans did. TestShardedRepairComposition
// pins the facade-level contract; wiring per-strip Repairers into
// shard.Plan itself is follow-up work (ROADMAP item 2 note).
type ShardedResult struct {
	Schedule                         *Schedule
	RequestedShards, EffectiveShards int
	Interior, Halo                   int
	Rounds, Moves                    int
	UtilityBefore, Utility           float64
	Cuts                             []float64
}

// ShardedDetectionPlan computes an activation schedule for the
// probabilistic detection utility by geometric sharding. The detection
// model must be a pure function of (sensor, target) — it is consulted
// concurrently while the per-strip sub-utilities are built.
func ShardedDetectionPlan(net *Network, model DetectionModel, period Period, opts ShardedOptions) (*ShardedResult, error) {
	if model == nil {
		return nil, errors.New("cool: nil detection model")
	}
	build := func(sensors, targets []int) (core.OracleFactory, error) {
		local, err := localIndex(net.NumSensors(), sensors)
		if err != nil {
			return nil, err
		}
		tl := make([]submodular.DetectionTarget, 0, len(targets))
		for _, j := range targets {
			t := net.Target(j)
			probs := make(map[int]float64)
			for _, i := range net.Coverers(j) {
				if local[i] < 0 {
					continue
				}
				p := model.Prob(net.Sensor(i), t)
				if p < 0 || p > 1 || math.IsNaN(p) {
					return nil, fmt.Errorf("cool: model returned probability %v for sensor %d target %d", p, i, j)
				}
				probs[local[i]] = p
			}
			tl = append(tl, submodular.DetectionTarget{Weight: t.Weight, Probs: probs})
		}
		u, err := submodular.NewDetectionUtility(len(sensors), tl)
		if err != nil {
			return nil, err
		}
		return func() submodular.RemovalOracle { return u.Oracle() }, nil
	}
	global, err := NewDetectionUtility(net, model)
	if err != nil {
		return nil, err
	}
	return shardedPlan(net, global, period, build, opts)
}

// ShardedTargetCountPlan computes an activation schedule for the
// weighted target-coverage utility by geometric sharding.
func ShardedTargetCountPlan(net *Network, period Period, opts ShardedOptions) (*ShardedResult, error) {
	build := func(sensors, targets []int) (core.OracleFactory, error) {
		local, err := localIndex(net.NumSensors(), sensors)
		if err != nil {
			return nil, err
		}
		items := make([]submodular.CoverageItem, 0, len(targets))
		for _, j := range targets {
			var covered []int
			for _, i := range net.Coverers(j) {
				if local[i] >= 0 {
					covered = append(covered, local[i])
				}
			}
			if len(covered) == 0 {
				continue
			}
			items = append(items, submodular.CoverageItem{Value: net.Target(j).Weight, CoveredBy: covered})
		}
		u, err := submodular.NewCoverageUtility(len(sensors), items)
		if err != nil {
			return nil, err
		}
		return func() submodular.RemovalOracle { return u.Oracle() }, nil
	}
	global, err := NewTargetCountUtility(net)
	if err != nil {
		return nil, err
	}
	return shardedPlan(net, global, period, build, opts)
}

// localIndex inverts an ascending global ID list into a global→local
// lookup (-1 for IDs outside the shard).
func localIndex(n int, sensors []int) ([]int, error) {
	local := make([]int, n)
	for i := range local {
		local[i] = -1
	}
	for u, v := range sensors {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("cool: shard sensor %d outside ground set of %d", v, n)
		}
		local[v] = u
	}
	return local, nil
}

// shardedPlan assembles the geometric problem from the deployment and
// runs the sharded planner.
func shardedPlan(net *Network, global Utility, period Period,
	build func(sensors, targets []int) (core.OracleFactory, error), opts ShardedOptions) (*ShardedResult, error) {
	if net == nil {
		return nil, errors.New("cool: nil network")
	}
	if err := period.Validate(); err != nil {
		return nil, err
	}
	p := &shard.Problem{
		Sensors:    make([]shard.SensorGeom, net.NumSensors()),
		Targets:    make([]shard.TargetGeom, net.NumTargets()),
		Period:     period,
		Global:     core.Instance{N: net.NumSensors(), Period: period, Factory: global.NewOracle},
		BuildShard: build,
	}
	for i := range p.Sensors {
		s := net.Sensor(i)
		p.Sensors[i] = shard.SensorGeom{X: s.Pos.X, Y: s.Pos.Y, Reach: s.Reach()}
	}
	for j := range p.Targets {
		t := net.Target(j)
		p.Targets[j] = shard.TargetGeom{X: t.Pos.X, Y: t.Pos.Y}
	}
	res, err := shard.Plan(p, shard.Options{
		Shards:    opts.Shards,
		Workers:   opts.Workers,
		MaxRounds: opts.MaxRounds,
		Lazy:      opts.Lazy,
	})
	if err != nil {
		return nil, err
	}
	return &ShardedResult{
		Schedule:        res.Schedule,
		RequestedShards: res.RequestedShards,
		EffectiveShards: res.EffectiveShards,
		Interior:        res.Interior,
		Halo:            res.Halo,
		Rounds:          res.Rounds,
		Moves:           res.Moves,
		UtilityBefore:   res.UtilityBefore,
		Utility:         res.Utility,
		Cuts:            res.Cuts,
	}, nil
}
