package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"time"

	"cool/internal/core"
	"cool/internal/energy"
	"cool/internal/geometry"
	"cool/internal/netsim"
	"cool/internal/shard"
	"cool/internal/stats"
	"cool/internal/submodular"
	"cool/internal/wsn"
)

// This file is the sharded-planning benchmark behind `coolbench -fig
// shard`: the geometric shard planner (internal/shard) against the flat
// engines at deployment sizes up to a million sensors, and the sharded
// radio network against the single flat core at a million nodes. Every
// speedup is reported next to its quality cost — the utility gap
// against the global greedy — and the run fails (ShardResult.verdictErr)
// when a k1_identical, gap_within_bound or trace_identical verdict it
// would write to BENCH_shard.json is false.

// ShardGapBoundPct is the accepted utility gap (percent) of a sharded
// plan against the global greedy; a case beyond it records
// gap_within_bound=false and fails the run.
const ShardGapBoundPct = 2.0

// ShardConfig parameterizes the sharded planner/netsim benchmark.
type ShardConfig struct {
	// PlanSizes lists the sensor counts benchmarked with the cached
	// eager engine per shard (default 100000). Targets are Sensors/10.
	PlanSizes []int
	// PlanKs lists the shard counts swept at each plan size (default
	// 1, 2, 4, 8, 16; 1 is required — it is the speedup baseline).
	PlanKs []int
	// BigSensors is the million-scale planning case run with the lazy
	// engine per shard (default 1000000; negative disables).
	BigSensors int
	// BigKs lists the shard counts for the lazy million-sensor case
	// (default 1, 16).
	BigKs []int
	// NetNodes is the sharded radio-core fleet size (default 1000000;
	// negative disables). NetKs lists its shard counts (default 1, 8).
	NetNodes int
	NetKs    []int
	// NetTicks is the number of whole-fleet broadcast rounds per timed
	// radio run (default 2).
	NetTicks int
	// FieldSide is the square deployment side (default 1000). Degree is
	// the target mean coverage/radio degree; ranges are solved from
	// Degree = π·r²·n/|Ω| (default 10).
	FieldSide float64
	Degree    float64
	// Rho sets the recharge/discharge ratio (default 3: placement mode,
	// T = 4 slots).
	Rho float64
	// Iters is the timing repetitions per point (minimum reported);
	// sizes above 10000 always use one (default 1).
	Iters int
	// Workers bounds per-shard planning concurrency (0 = NumCPU).
	Workers int
	// Seed drives deployments and radio randomness.
	Seed uint64
}

func (c *ShardConfig) defaults() error {
	if len(c.PlanSizes) == 0 {
		c.PlanSizes = []int{100000}
	}
	if len(c.PlanKs) == 0 {
		c.PlanKs = []int{1, 2, 4, 8, 16}
	}
	if c.BigSensors == 0 {
		c.BigSensors = 1000000
	}
	if len(c.BigKs) == 0 {
		c.BigKs = []int{1, 16}
	}
	if c.NetNodes == 0 {
		c.NetNodes = 1000000
	}
	if len(c.NetKs) == 0 {
		c.NetKs = []int{1, 8}
	}
	if c.NetTicks == 0 {
		c.NetTicks = 2
	}
	if c.FieldSide == 0 {
		c.FieldSide = 1000
	}
	if c.Degree == 0 {
		c.Degree = 10
	}
	if c.Rho == 0 {
		c.Rho = 3
	}
	if c.Iters == 0 {
		c.Iters = 1
	}
	if c.PlanKs[0] != 1 || (len(c.NetKs) > 0 && c.NetKs[0] != 1) {
		return fmt.Errorf("experiments: shard bench k sweeps must start at 1 (the baseline)")
	}
	for _, n := range c.PlanSizes {
		if n < 100 {
			return fmt.Errorf("experiments: shard bench plan size %d too small", n)
		}
	}
	if c.Iters < 1 || c.NetTicks < 1 || c.FieldSide <= 0 || c.Degree <= 0 || c.Rho <= 0 {
		return fmt.Errorf("experiments: invalid shard bench config %+v", *c)
	}
	return nil
}

// ShardPlanCase is one (size, k) planning measurement.
type ShardPlanCase struct {
	K          int `json:"k"`
	EffectiveK int `json:"effective_k"`
	Halo       int `json:"halo"`
	Rounds     int `json:"rounds"`
	Moves      int `json:"moves"`
	// NsOp times the whole sharded Plan call (partitioning, per-shard
	// sub-utility builds, engines, correction sweep).
	NsOp        int64   `json:"ns_op"`
	NsPerSensor float64 `json:"ns_per_sensor"`
	Utility     float64 `json:"utility"`
	// GapPct is the utility shortfall versus the k=1 global engine in
	// percent; GapWithinBound records GapPct <= ShardGapBoundPct.
	GapPct         float64 `json:"utility_gap_pct"`
	GapWithinBound bool    `json:"gap_within_bound"`
	SpeedupVsK1    float64 `json:"speedup_vs_k1"`
	// ScalingEfficiency is SpeedupVsK1 / EffectiveK.
	ScalingEfficiency float64 `json:"scaling_efficiency"`
}

// ShardPlanGroup is the k sweep at one deployment size.
type ShardPlanGroup struct {
	Sensors int    `json:"sensors"`
	Targets int    `json:"targets"`
	Engine  string `json:"engine"`
	// K1Identical records that the k=1 sharded plan's assignment is
	// bit-identical to the flat engine run directly on the global
	// instance.
	K1Identical bool            `json:"k1_identical"`
	K1NsOp      int64           `json:"k1_ns_op"`
	Cases       []ShardPlanCase `json:"cases"`
}

// ShardNetCase is one radio-core measurement at one shard count.
type ShardNetCase struct {
	K          int   `json:"k"`
	EffectiveK int   `json:"effective_k"`
	NsOp       int64 `json:"ns_op"`
	Sent       int   `json:"sent"`
	Delivered  int   `json:"delivered"`
	// PacketsPerSec is enqueued packets divided by wall time.
	PacketsPerSec float64 `json:"packets_per_sec"`
	// TraceIdentical records that the per-(tick, receiver) delivery
	// sets — order-normalized by sender ID — and the summed packet
	// counters match the k=1 flat core exactly (lossless fixed-delay
	// medium).
	TraceIdentical bool    `json:"trace_identical"`
	SpeedupVsK1    float64 `json:"speedup_vs_k1"`
}

// ShardResult is the machine-readable summary coolbench writes to
// BENCH_shard.json.
type ShardResult struct {
	FieldSide   float64          `json:"field_side"`
	Degree      float64          `json:"degree"`
	Rho         float64          `json:"rho"`
	GapBoundPct float64          `json:"gap_bound_pct"`
	PlanGroups  []ShardPlanGroup `json:"plan_groups"`
	NetNodes    int              `json:"net_nodes"`
	NetTicks    int              `json:"net_ticks"`
	NetCases    []ShardNetCase   `json:"net_cases"`
}

// verdictErr names the first case whose verdict is false, if any.
func (r *ShardResult) verdictErr() error {
	for _, g := range r.PlanGroups {
		where := fmt.Sprintf("plan n=%d engine=%s", g.Sensors, g.Engine)
		if !g.K1Identical {
			return falseVerdict("shard", "k1_identical", where)
		}
		for _, c := range g.Cases {
			if !c.GapWithinBound {
				return falseVerdict("shard", "gap_within_bound", fmt.Sprintf("%s k=%d", where, c.K))
			}
		}
	}
	for _, c := range r.NetCases {
		if !c.TraceIdentical {
			return falseVerdict("shard", "trace_identical", fmt.Sprintf("net n=%d k=%d", r.NetNodes, c.K))
		}
	}
	return nil
}

// shardPlanProblem deploys a uniform field and assembles the geometric
// shard problem over the detection utility (FixedProb 0.4), solving the
// sensing range from the target coverage degree.
func shardPlanProblem(n int, cfg *ShardConfig, period energy.Period, seed uint64) (*shard.Problem, error) {
	m := n / 10
	r := math.Sqrt(cfg.Degree * cfg.FieldSide * cfg.FieldSide / (math.Pi * float64(n)))
	net, err := wsn.Deploy(wsn.DeployConfig{
		Field:   geometry.NewRect(geometry.Point{}, geometry.Point{X: cfg.FieldSide, Y: cfg.FieldSide}),
		Sensors: n,
		Targets: m,
		Range:   r,
		Layout:  wsn.LayoutUniform,
	}, stats.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	const p = 0.4
	build := func(sensors, targets []int) (core.OracleFactory, error) {
		local := make([]int, n)
		for i := range local {
			local[i] = -1
		}
		for u, v := range sensors {
			local[v] = u
		}
		tl := make([]submodular.DetectionTarget, 0, len(targets))
		for _, j := range targets {
			probs := make(map[int]float64)
			for _, i := range net.Coverers(j) {
				if local[i] >= 0 {
					probs[local[i]] = p
				}
			}
			tl = append(tl, submodular.DetectionTarget{Weight: net.Target(j).Weight, Probs: probs})
		}
		u, err := submodular.NewDetectionUtility(len(sensors), tl)
		if err != nil {
			return nil, err
		}
		return func() submodular.RemovalOracle { return u.Oracle() }, nil
	}
	globalFactory, err := build(identity(n), identity(m))
	if err != nil {
		return nil, err
	}
	prob := &shard.Problem{
		Sensors:    make([]shard.SensorGeom, n),
		Targets:    make([]shard.TargetGeom, m),
		Period:     period,
		Global:     core.Instance{N: n, Period: period, Factory: globalFactory},
		BuildShard: build,
	}
	for i := range prob.Sensors {
		s := net.Sensor(i)
		prob.Sensors[i] = shard.SensorGeom{X: s.Pos.X, Y: s.Pos.Y, Reach: s.Reach()}
	}
	for j := range prob.Targets {
		t := net.Target(j)
		prob.Targets[j] = shard.TargetGeom{X: t.Pos.X, Y: t.Pos.Y}
	}
	return prob, nil
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// shardPlanGroup sweeps the configured shard counts at one size.
func shardPlanGroup(n int, ks []int, lazy bool, cfg *ShardConfig, period energy.Period) (*ShardPlanGroup, error) {
	prob, err := shardPlanProblem(n, cfg, period, cfg.Seed+uint64(n))
	if err != nil {
		return nil, err
	}
	engine := "eager"
	if lazy {
		engine = "lazy"
	}
	group := &ShardPlanGroup{Sensors: n, Targets: n / 10, Engine: engine}

	iters := cfg.Iters
	if n > 10000 {
		iters = 1
	}
	var k1 *shard.Result
	for _, k := range ks {
		var best *shard.Result
		var bestNs int64 = -1
		for i := 0; i < iters; i++ {
			var res *shard.Result
			ns, err := measureRun(func() error {
				var err error
				res, err = shard.Plan(prob, shard.Options{Shards: k, Workers: cfg.Workers, Lazy: lazy})
				return err
			})
			if err != nil {
				return nil, err
			}
			if bestNs < 0 || ns < bestNs {
				bestNs, best = ns, res
			}
		}
		if k == 1 {
			k1 = best
			group.K1NsOp = bestNs
			// Bit-identity audit against the flat engine run directly.
			flat := core.Greedy
			if lazy {
				flat = core.LazyGreedy
			}
			direct, err := flat(prob.Global)
			if err != nil {
				return nil, err
			}
			group.K1Identical = assignEqual(best.Schedule.Assignment(), direct.Assignment())
		}
		gap := 0.0
		if k1 != nil && k1.Utility > 0 {
			gap = (k1.Utility - best.Utility) / k1.Utility * 100
		}
		c := ShardPlanCase{
			K:              k,
			EffectiveK:     best.EffectiveShards,
			Halo:           best.Halo,
			Rounds:         best.Rounds,
			Moves:          best.Moves,
			NsOp:           bestNs,
			NsPerSensor:    float64(bestNs) / float64(n),
			Utility:        best.Utility,
			GapPct:         gap,
			GapWithinBound: gap <= ShardGapBoundPct,
			SpeedupVsK1:    float64(group.K1NsOp) / float64(bestNs),
		}
		c.ScalingEfficiency = c.SpeedupVsK1 / float64(best.EffectiveShards)
		group.Cases = append(group.Cases, c)
	}
	return group, nil
}

// measureRun times one execution, starting from a forced GC so that
// garbage left by earlier runs is not collected on this run's clock.
func measureRun(run func() error) (int64, error) {
	runtime.GC()
	t0 := time.Now()
	if err := run(); err != nil {
		return 0, err
	}
	return time.Since(t0).Nanoseconds(), nil
}

// shardNetRun executes ticks whole-fleet broadcast rounds on a sharded
// radio net and returns (wall ns, delivery-trace digest). The digest
// folds, for every tick and receiver in ascending ID order, the sorted
// sender list — the order-normalized delivery trace, comparable across
// shard counts on a lossless fixed-delay medium.
func shardNetRun(specs []netsim.NodeSpec, k, workers, ticks int, seed uint64) (int64, uint64, int, int, int, error) {
	net, err := shard.NewNet(specs, shard.NetOptions{
		Shards: k, Workers: workers, MinDelay: 1, MaxDelay: 1, Seed: seed,
	})
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	payload := any("beacon")
	var buf []netsim.Message
	froms := make([]int, 0, 64)
	h := fnv.New64a()
	var word [8]byte
	hashInt := func(v int) {
		for i := range word {
			word[i] = byte(v >> (8 * i))
		}
		h.Write(word[:])
	}
	ns, err := measureRun(func() error {
		for t := 0; t < ticks; t++ {
			for i := range specs {
				if _, err := net.Batch(specs[i].ID, payload); err != nil {
					return err
				}
			}
			net.Step()
			for i := range specs {
				var err error
				buf, err = net.ReceiveInto(specs[i].ID, buf)
				if err != nil {
					return err
				}
				froms = froms[:0]
				for _, m := range buf {
					froms = append(froms, int(m.From))
				}
				sort.Ints(froms)
				hashInt(t)
				hashInt(i)
				for _, f := range froms {
					hashInt(f)
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	sent, delivered, _ := net.Stats()
	return ns, h.Sum64(), sent, delivered, net.EffectiveShards(), nil
}

// netsimSpecs deploys n nodes uniformly at random with a shared radio
// range solved from the target mean degree.
func netsimSpecs(n int, fieldSide, degree float64, seed uint64) []netsim.NodeSpec {
	r := math.Sqrt(degree * fieldSide * fieldSide / (math.Pi * float64(n)))
	rng := stats.NewRNG(seed)
	specs := make([]netsim.NodeSpec, n)
	for i := range specs {
		specs[i] = netsim.NodeSpec{
			ID: netsim.NodeID(i),
			Pos: geometry.Point{
				X: rng.Float64() * fieldSide,
				Y: rng.Float64() * fieldSide,
			},
			Radio: r,
		}
	}
	return specs
}

// shardNetSweep benchmarks the sharded radio core at every configured
// k, comparing each run's normalized delivery trace and counters to the
// k=1 flat core's.
func shardNetSweep(cfg *ShardConfig) ([]ShardNetCase, error) {
	n := cfg.NetNodes
	specs := netsimSpecs(n, cfg.FieldSide, cfg.Degree, cfg.Seed+99)
	var out []ShardNetCase
	var baseNs int64
	var baseDigest uint64
	var baseSent, baseDelivered int
	for _, k := range cfg.NetKs {
		ns, digest, sent, delivered, effK, err := shardNetRun(specs, k, cfg.Workers, cfg.NetTicks, cfg.Seed)
		if err != nil {
			return nil, err
		}
		if k == 1 {
			baseNs, baseDigest, baseSent, baseDelivered = ns, digest, sent, delivered
		}
		out = append(out, ShardNetCase{
			K:              k,
			EffectiveK:     effK,
			NsOp:           ns,
			Sent:           sent,
			Delivered:      delivered,
			PacketsPerSec:  float64(sent) / (float64(ns) / 1e9),
			TraceIdentical: digest == baseDigest && sent == baseSent && delivered == baseDelivered,
			SpeedupVsK1:    float64(baseNs) / float64(ns),
		})
	}
	return out, nil
}

// ShardBench runs the sharded planner and radio-core benchmark and
// returns both a renderable Figure and the machine-readable result.
func ShardBench(cfg ShardConfig) (*Figure, *ShardResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, nil, err
	}
	period, err := energy.PeriodFromRho(cfg.Rho)
	if err != nil {
		return nil, nil, err
	}
	res := &ShardResult{
		FieldSide:   cfg.FieldSide,
		Degree:      cfg.Degree,
		Rho:         cfg.Rho,
		GapBoundPct: ShardGapBoundPct,
		NetNodes:    cfg.NetNodes,
		NetTicks:    cfg.NetTicks,
	}
	fig := &Figure{
		ID: "shard-bench",
		Title: fmt.Sprintf("Sharded planner: geometric strips + border correction, degree≈%.0f",
			cfg.Degree),
		XLabel: "shards k",
		YLabel: "plan seconds",
	}

	for _, n := range cfg.PlanSizes {
		group, err := shardPlanGroup(n, cfg.PlanKs, false, &cfg, period)
		if err != nil {
			return nil, nil, err
		}
		res.PlanGroups = append(res.PlanGroups, *group)
		s := Series{Label: fmt.Sprintf("eager n=%d", n)}
		for _, c := range group.Cases {
			s.X = append(s.X, float64(c.K))
			s.Y = append(s.Y, float64(c.NsOp)/1e9)
			fig.Notes = append(fig.Notes, fmt.Sprintf(
				"eager n=%d k=%d (eff %d): %.2fs, %.1f ns/sensor, %.2fx vs k=1 (eff %.0f%%), gap %.3f%%, halo %d, %d moves/%d rounds",
				n, c.K, c.EffectiveK, float64(c.NsOp)/1e9, c.NsPerSensor, c.SpeedupVsK1,
				100*c.ScalingEfficiency, c.GapPct, c.Halo, c.Moves, c.Rounds))
		}
		fig.Series = append(fig.Series, s)
	}

	if cfg.BigSensors > 0 {
		group, err := shardPlanGroup(cfg.BigSensors, cfg.BigKs, true, &cfg, period)
		if err != nil {
			return nil, nil, err
		}
		res.PlanGroups = append(res.PlanGroups, *group)
		s := Series{Label: fmt.Sprintf("lazy n=%d", cfg.BigSensors)}
		for _, c := range group.Cases {
			s.X = append(s.X, float64(c.K))
			s.Y = append(s.Y, float64(c.NsOp)/1e9)
			fig.Notes = append(fig.Notes, fmt.Sprintf(
				"lazy n=%d k=%d (eff %d): %.2fs, %.1f ns/sensor, %.2fx vs k=1, gap %.3f%%",
				cfg.BigSensors, c.K, c.EffectiveK, float64(c.NsOp)/1e9, c.NsPerSensor,
				c.SpeedupVsK1, c.GapPct))
		}
		fig.Series = append(fig.Series, s)
	}

	if cfg.NetNodes > 0 {
		cases, err := shardNetSweep(&cfg)
		if err != nil {
			return nil, nil, err
		}
		res.NetCases = cases
		for _, c := range cases {
			fig.Notes = append(fig.Notes, fmt.Sprintf(
				"net n=%d k=%d (eff %d): %.2fs for %d rounds, %.2gM pkts/s, %.2fx vs k=1, identical=%v",
				cfg.NetNodes, c.K, c.EffectiveK, float64(c.NsOp)/1e9, cfg.NetTicks,
				c.PacketsPerSec/1e6, c.SpeedupVsK1, c.TraceIdentical))
		}
	}
	if err := res.verdictErr(); err != nil {
		return nil, nil, err
	}
	return fig, res, nil
}

func assignEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
