package shard

import (
	"errors"
	"fmt"
	"runtime"

	"cool/internal/core"
	"cool/internal/parallel"
)

// runEngine dispatches a flat instance to the configured engine: the
// cached eager Greedy or the CELF LazyGreedy. Both produce
// bit-identical schedules on the same instance, so the choice only
// affects speed.
func runEngine(in core.Instance, lazy bool) (*core.Schedule, error) {
	if lazy {
		return core.LazyGreedy(in)
	}
	return core.Greedy(in)
}

// Plan computes an activation schedule by geometric sharding: partition
// the field into k vertical strips, plan every strip independently with
// the flat engine (concurrently over Options.Workers), merge the
// per-strip assignments, and repair the border with the bounded
// correction sweep. k = 1 (after clamping) bypasses the decomposition
// and returns the global engine's schedule bit-identically.
func Plan(p *Problem, opts Options) (*Result, error) {
	if p == nil {
		return nil, errors.New("shard: nil problem")
	}
	if err := p.Global.Validate(); err != nil {
		return nil, err
	}
	if len(p.Sensors) != p.Global.N {
		return nil, fmt.Errorf("shard: %d sensor geometries for %d sensors", len(p.Sensors), p.Global.N)
	}
	if p.Period != p.Global.Period {
		return nil, fmt.Errorf("shard: problem period %+v != instance period %+v", p.Period, p.Global.Period)
	}
	mode := core.ModeFor(p.Period)

	k := opts.Shards
	if k <= 0 {
		k = runtime.NumCPU()
	}
	requested := k
	if k > p.Global.N {
		k = p.Global.N
	}

	if k == 1 {
		return planGlobal(p, opts, requested)
	}

	pt := newPartition(p, k)
	if pt.shards() == 1 {
		// The populated geometry cannot host more than one strip (all
		// sensors in one grid column, degenerate extents, ...): graceful
		// degradation to the global engine.
		return planGlobal(p, opts, requested)
	}
	if p.BuildShard == nil {
		return nil, errors.New("shard: Problem.BuildShard is nil")
	}

	kEff := pt.shards()
	assign := make([]int, p.Global.N)
	for v := range assign {
		assign[v] = -1
	}
	err := parallel.For(opts.Workers, kEff, func(s int) error {
		sensors := pt.shardSensors[s]
		if len(sensors) == 0 {
			return nil
		}
		factory, err := p.BuildShard(sensors, pt.shardTargets[s])
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		sub := core.Instance{N: len(sensors), Period: p.Period, Factory: factory}
		sched, err := runEngine(sub, opts.Lazy)
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		// Index-addressed merge: every global ID belongs to exactly one
		// strip, so concurrent writes never collide.
		for u, t := range sched.Assignment() {
			assign[sensors[u]] = t
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	T := p.Period.Slots()
	before, err := core.NewSchedule(mode, T, assign)
	if err != nil {
		return nil, err
	}
	res := &Result{
		RequestedShards: requested,
		EffectiveShards: kEff,
		Interior:        p.Global.N - len(pt.haloList),
		Halo:            len(pt.haloList),
		UtilityBefore:   before.PeriodUtility(p.Global.Factory),
		Cuts:            append([]float64(nil), pt.cuts...),
	}

	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = DefaultMaxRounds
	}
	if maxRounds > 0 {
		res.Rounds, res.Moves, err = correctionSweep(p.Global, mode, assign, pt.haloList, maxRounds)
		if err != nil {
			return nil, err
		}
	}

	res.Schedule, err = core.NewSchedule(mode, T, assign)
	if err != nil {
		return nil, err
	}
	res.Utility = res.Schedule.PeriodUtility(p.Global.Factory)
	return res, nil
}

// planGlobal is the k = 1 path: the global engine on the full instance,
// wrapped in the sharded Result shape with the decomposition fields
// reporting the trivial partition.
func planGlobal(p *Problem, opts Options, requested int) (*Result, error) {
	sched, err := runEngine(p.Global, opts.Lazy)
	if err != nil {
		return nil, err
	}
	u := sched.PeriodUtility(p.Global.Factory)
	return &Result{
		Schedule:        sched,
		RequestedShards: requested,
		EffectiveShards: 1,
		Interior:        p.Global.N,
		UtilityBefore:   u,
		Utility:         u,
	}, nil
}
