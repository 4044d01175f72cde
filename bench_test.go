package cool

// One benchmark per paper figure plus the ablation benches listed in
// DESIGN.md. Run everything with:
//
//	go test -bench=. -benchmem
//
// The figure benches execute the same harness code as cmd/coolbench
// (reduced sweeps so a bench iteration stays sub-second); the full
// paper-scale sweeps are regenerated by `coolbench -fig all`.

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"cool/internal/core"
	"cool/internal/experiments"
	"cool/internal/geometry"
	"cool/internal/netsim"
	"cool/internal/protocol"
	"cool/internal/sim"
	"cool/internal/stats"
	"cool/internal/submodular"
	"cool/internal/wsn"
)

// BenchmarkFig7ChargingPattern regenerates Figure 7: a simulated
// measurement day for two motes plus per-window pattern estimation.
func BenchmarkFig7ChargingPattern(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig7(experiments.Fig7Config{
			Interval: 5 * time.Minute,
			Seed:     uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig8UtilityVsSensors regenerates a Figure-8 subfigure
// (greedy vs upper bound, n = 20..100) per iteration, one sub-benchmark
// per target count m = 1..4.
func BenchmarkFig8UtilityVsSensors(b *testing.B) {
	for m := 1; m <= 4; m++ {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fig, err := experiments.Fig8(experiments.Fig8Config{Targets: m})
				if err != nil {
					b.Fatal(err)
				}
				if fig.FindSeries("greedy-avg-utility") == nil {
					b.Fatal("missing series")
				}
			}
		})
	}
}

// BenchmarkFig9UtilityVsTargets regenerates a reduced Figure-9 sweep
// (the full 500-sensor, 3-repeat sweep runs via coolbench).
func BenchmarkFig9UtilityVsTargets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig9(experiments.Fig9Config{
			SensorCounts: []int{100, 200},
			TargetCounts: []int{10, 30, 50},
			Repeats:      1,
			Seed:         uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) != 2 {
			b.Fatal("wrong series count")
		}
	}
}

// benchUtility builds the Figure-9-style workload for scheduling
// benches.
func benchUtility(b *testing.B, n, m int, seed uint64) Utility {
	b.Helper()
	net, err := Deploy(DeployConfig{
		Field:   NewField(500),
		Sensors: n,
		Targets: m,
		Range:   100,
	}, seed)
	if err != nil {
		b.Fatal(err)
	}
	u, err := NewDetectionUtility(net, FixedProb(0.4))
	if err != nil {
		b.Fatal(err)
	}
	return u
}

func benchPlanner(b *testing.B, n, m int, rho float64) *Planner {
	b.Helper()
	u := benchUtility(b, n, m, 7)
	period, err := PeriodFromRho(rho)
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewPlanner(u, period)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkGreedyVsExact compares the greedy schedule against the
// branch-and-bound optimum on an enumeration-scale instance (the
// evaluation's optimal-reference setting).
func BenchmarkGreedyVsExact(b *testing.B) {
	p := benchPlanner(b, 9, 3, 3)
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Plan(PlanRequest{Algorithm: AlgorithmGreedy}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Plan(PlanRequest{Algorithm: AlgorithmExact}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPolicies (A2): every scheduling policy on the same
// workload.
func BenchmarkAblationPolicies(b *testing.B) {
	p := benchPlanner(b, 200, 20, 3)
	for _, name := range BaselineNames() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Baseline(name, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRho (A3): greedy across charging regimes, covering
// both the placement and removal forms.
func BenchmarkAblationRho(b *testing.B) {
	for _, rho := range []float64{1.0 / 3, 1, 3, 5} {
		p := benchPlanner(b, 120, 12, rho)
		b.Run(fmt.Sprintf("rho=%.2f", rho), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Plan(PlanRequest{Algorithm: AlgorithmGreedy}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRandomCharging exercises the Section-V stochastic model
// through the slotted simulator.
func BenchmarkRandomCharging(b *testing.B) {
	p := benchPlanner(b, 100, 10, 3)
	sched := mustPlan(b, p, PlanRequest{Algorithm: AlgorithmGreedy}).Schedule
	u := benchUtility(b, 100, 10, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunSimulation(SimConfig{
			NumSensors: 100,
			Slots:      120,
			Policy:     SchedulePolicy{Schedule: sched},
			Charging: RandomCharging{
				Period:        p.Period(),
				EventRate:     1,
				EventDuration: 1,
			},
			Factory: NewInstanceOracleFactory(u),
			Targets: 10,
			Seed:    uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalUtility <= 0 {
			b.Fatal("zero utility")
		}
	}
}

// BenchmarkLPRelaxation measures the simplex-based LP baseline
// (Section IV-A-1) on a coverage instance.
func BenchmarkLPRelaxation(b *testing.B) {
	net, err := Deploy(DeployConfig{
		Field:   NewField(500),
		Sensors: 30,
		Targets: 15,
		Range:   120,
	}, 3)
	if err != nil {
		b.Fatal(err)
	}
	cov, err := NewTargetCountUtility(net)
	if err != nil {
		b.Fatal(err)
	}
	period, err := PeriodFromRho(3)
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewPlanner(cov, period)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Plan(PlanRequest{Algorithm: AlgorithmLPRound, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectionOracleGain measures the incremental marginal-gain
// query, the inner loop of every scheduler.
func BenchmarkDetectionOracleGain(b *testing.B) {
	rng := stats.NewRNG(5)
	net, err := wsn.Deploy(wsn.DeployConfig{
		Field:   geometry.NewRect(geometry.Point{}, geometry.Point{X: 500, Y: 500}),
		Sensors: 500,
		Targets: 50,
		Range:   100,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	u, err := wsn.BuildDetectionUtility(net, wsn.FixedProb(0.4))
	if err != nil {
		b.Fatal(err)
	}
	o := u.Oracle()
	for v := 0; v < 250; v++ {
		o.Add(v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Gain(250 + i%250)
	}
}

// BenchmarkSubdivision measures the region decomposition behind the
// Equation-2 area utility.
func BenchmarkSubdivision(b *testing.B) {
	rng := stats.NewRNG(6)
	omega := geometry.NewRect(geometry.Point{}, geometry.Point{X: 500, Y: 500})
	regions := make([]geometry.Region, 100)
	for i := range regions {
		regions[i] = geometry.Disk{
			Center: geometry.Point{X: rng.UniformRange(0, 500), Y: rng.UniformRange(0, 500)},
			Radius: 60,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := geometry.Subdivide(omega, regions, 200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw slot throughput of the
// deterministic simulator.
func BenchmarkSimulatorThroughput(b *testing.B) {
	p := benchPlanner(b, 200, 20, 3)
	sched := mustPlan(b, p, PlanRequest{Algorithm: AlgorithmGreedy}).Schedule
	u := benchUtility(b, 200, 20, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(p, sched, 480, 20, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(480, "slots/op")
	_ = u
}

// BenchmarkProtocolDissemination measures schedule flooding over a
// lossy 36-node grid until full acknowledgement.
func BenchmarkProtocolDissemination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := netsim.NewNetwork(netsim.WithLoss(0.2), netsim.WithSeed(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		id := netsim.NodeID(0)
		for r := 0; r < 6; r++ {
			for c := 0; c < 6; c++ {
				pos := geometry.Point{X: float64(c) * 10, Y: float64(r) * 10}
				if err := net.AddNode(id, pos, 12); err != nil {
					b.Fatal(err)
				}
				id++
			}
		}
		e, err := protocol.NewEngine(protocol.Config{}, net)
		if err != nil {
			b.Fatal(err)
		}
		for n := netsim.NodeID(0); n < id; n++ {
			if err := e.Register(n); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.Distribute(protocol.ScheduleMsg{
			Version: 1, Period: 4, Assign: make([]int, 36),
		}); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := e.RunUntil(e.AllAcked, 10000); err != nil || !ok {
			b.Fatalf("dissemination failed: %v", err)
		}
	}
}

// BenchmarkExtensionHetero (E1) measures the heterogeneous greedy on a
// mixed fleet over its hyperperiod.
func BenchmarkExtensionHetero(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.AblationHetero(experiments.AblationConfig{
			Sensors: 60, Targets: 10, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if fig.FindSeries("hetero-greedy") == nil {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkExtensionAdaptive (E2) measures the online partial-charge
// policy against the rigid schedule across jitter levels.
func BenchmarkExtensionAdaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.AblationAdaptive(experiments.AblationConfig{
			Sensors: 60, Targets: 10, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if fig.FindSeries("online-adaptive") == nil {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkExactPruning quantifies how much the submodular bound prunes
// relative to raw enumeration size.
func BenchmarkExactPruning(b *testing.B) {
	u := benchUtility(b, 10, 4, 11)
	period, err := PeriodFromRho(3)
	if err != nil {
		b.Fatal(err)
	}
	in := core.Instance{
		N:       10,
		Period:  period,
		Factory: func() submodular.RemovalOracle { return u.NewOracle() },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Exact(in, core.ExactOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClosedLoop measures the full measure→estimate→replan→execute
// controller over a Markov month.
func BenchmarkClosedLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.ClosedLoopExperiment(experiments.AblationConfig{
			Sensors: 60, Targets: 10, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if fig.FindSeries("closed-loop") == nil {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkSensitivitySweeps measures the p and radius sweeps.
func BenchmarkSensitivitySweeps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SensitivityP(experiments.AblationConfig{
			Sensors: 80, Targets: 10, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.SensitivityRange(experiments.AblationConfig{
			Sensors: 80, Targets: 10, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchInstance builds a core.Instance on the Figure-9-style workload
// (n sensors and m targets in a 500×500 field, range 100, p = 0.4) for
// the engine benches. ρ = 7 gives T = 8 slots.
func benchInstance(b *testing.B, n, m int, rho float64) core.Instance {
	b.Helper()
	return deployBenchInstance(b, wsn.DeployConfig{
		Field:   geometry.NewRect(geometry.Point{}, geometry.Point{X: 500, Y: 500}),
		Sensors: n,
		Targets: m,
		Range:   100,
	}, 7, rho)
}

// sparseBenchInstance builds the BENCH_replan.json field at n sensors:
// n/10 targets uniform over a 1000×1000 square, the sensing range
// solved for a mean coverage degree of 10, p = 0.4, seed 1+n.
func sparseBenchInstance(b *testing.B, n int, rho float64) core.Instance {
	b.Helper()
	const side, degree = 1000.0, 10.0
	return deployBenchInstance(b, wsn.DeployConfig{
		Field:   geometry.NewRect(geometry.Point{}, geometry.Point{X: side, Y: side}),
		Sensors: n,
		Targets: n / 10,
		Range:   math.Sqrt(degree * side * side / (math.Pi * float64(n))),
		Layout:  wsn.LayoutUniform,
	}, 1+uint64(n), rho)
}

func deployBenchInstance(b *testing.B, cfg wsn.DeployConfig, seed uint64, rho float64) core.Instance {
	b.Helper()
	net, err := wsn.Deploy(cfg, stats.NewRNG(seed))
	if err != nil {
		b.Fatal(err)
	}
	u, err := wsn.BuildDetectionUtility(net, wsn.FixedProb(0.4))
	if err != nil {
		b.Fatal(err)
	}
	period, err := PeriodFromRho(rho)
	if err != nil {
		b.Fatal(err)
	}
	return core.Instance{
		N:       cfg.Sensors,
		Period:  period,
		Factory: func() submodular.RemovalOracle { return u.Oracle() },
	}
}

// BenchmarkEngineMatrix times the greedy climb on a dense and a sparse
// workload: the n = 240, T = 8 instance, where every sensor sees most
// targets, with the seed's uncached reference scan as yardstick; and
// the n = 10⁴ BENCH_replan.json field at ρ = 3 and ρ = 1/3. DESIGN.md
// §5.11 records the measured rows. Rerun with
//
//	go test -run xxx -bench EngineMatrix -benchtime 3x -count 5 .
func BenchmarkEngineMatrix(b *testing.B) {
	timePlan := func(b *testing.B, name string, plan func(core.Instance) (*core.Schedule, error), in core.Instance) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("dense-n240", func(b *testing.B) {
		in := benchInstance(b, 240, 24, 7)
		timePlan(b, "reference", core.ReferenceGreedy, in)
		timePlan(b, "greedy", core.Greedy, in)
	})
	for _, rho := range []float64{3, 1.0 / 3} {
		b.Run(fmt.Sprintf("sparse-n10000-rho%.3g", rho), func(b *testing.B) {
			timePlan(b, "greedy", core.Greedy, sparseBenchInstance(b, 10000, rho))
		})
	}
}

// BenchmarkReplanCycle times one incremental repair cycle of the
// Repairer that planned the sparse n = 10⁴ engine-matrix field, at
// ρ = 3 and ρ = 1/3: kill four random live sensors (RemoveSensors),
// then deploy them back (AddSensors). DESIGN.md §5.7 records the
// measured rows. Rerun with
//
//	go test -run xxx -bench ReplanCycle -benchtime 2000x -count 5 .
func BenchmarkReplanCycle(b *testing.B) {
	for _, rho := range []float64{3, 1.0 / 3} {
		b.Run(fmt.Sprintf("sparse-n10000-rho%.3g", rho), func(b *testing.B) {
			in := sparseBenchInstance(b, 10000, rho)
			r, err := core.NewRepairer(in)
			if err != nil {
				b.Fatal(err)
			}
			rng := stats.NewRNG(11)
			victims := make([]int, 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < len(victims); {
					if v := rng.Intn(in.N); !slices.Contains(victims[:k], v) {
						victims[k] = v
						k++
					}
				}
				if _, err := r.RemoveSensors(victims); err != nil {
					b.Fatal(err)
				}
				if _, err := r.AddSensors(victims); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRepairAll times the whole-fleet polish of the same Repairer
// at its local-search fixed point, at ρ = 3 and ρ = 1/3: one sweep
// round that moves nothing. DESIGN.md §5.7 records the measured rows.
// Rerun with
//
//	go test -run xxx -bench RepairAll -benchtime 20x -count 5 .
func BenchmarkRepairAll(b *testing.B) {
	for _, rho := range []float64{3, 1.0 / 3} {
		b.Run(fmt.Sprintf("sparse-n10000-rho%.3g", rho), func(b *testing.B) {
			r, err := core.NewRepairer(sparseBenchInstance(b, 10000, rho))
			if err != nil {
				b.Fatal(err)
			}
			for r.RepairAll().Moves > 0 { // polish to the fixed point
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.RepairAll()
			}
		})
	}
}

// BenchmarkSimParallel measures the Monte-Carlo engine: 32 replications
// of a 240-slot random-charging run, sequential vs parallel.
func BenchmarkSimParallel(b *testing.B) {
	in := benchInstance(b, 120, 12, 3)
	sched, err := core.Greedy(in)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{
		NumSensors: in.N,
		Slots:      240,
		Policy:     sim.SchedulePolicy{Schedule: sched},
		Charging: sim.RandomCharging{
			Period:        in.Period,
			EventRate:     1,
			EventDuration: 1,
		},
		Factory: in.Factory,
		Targets: 12,
		Seed:    3,
	}
	const reps = 32
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunParallel(cfg, reps, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunParallel(cfg, reps, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
